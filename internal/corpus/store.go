package corpus

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/core"
)

// Store persists corpus entries as one JSON file per finding signature
// in a directory. The layout is deliberately boring — `<key>.json`,
// indented JSON, stable key derivation — so a corpus survives tooling
// generations and diffs cleanly under version control. A Store performs
// no locking of its own; the fleet serialises access through its
// aggregator, and concurrent farms should use separate directories.
type Store struct {
	dir string
}

// Open opens (creating if needed) a corpus directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return &Store{dir: dir}, nil
}

// KeyOf derives the stable store key of a signature: the error class
// and state slugs plus the hex port, e.g.
// "connection-failed--wait-config--0x0001". The derivation is pinned by
// a golden test — changing it would orphan every existing corpus.
func KeyOf(sig core.Signature) string {
	return fmt.Sprintf("%s--%s--0x%04x", slug(sig.Class.String()), slug(sig.State.String()), uint16(sig.PSM))
}

// slug lowercases and folds non-alphanumerics to single dashes.
func slug(s string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		case !dash && b.Len() > 0:
			b.WriteByte('-')
			dash = true
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// Has reports whether an entry for sig is stored.
func (s *Store) Has(sig core.Signature) bool {
	_, err := os.Stat(s.path(KeyOf(sig)))
	return err == nil
}

// Put writes an entry, replacing any existing one under the same
// signature. The finding's in-memory trace fields are dropped: the
// canonical trace is Entry.Trace. The write goes through a temp file
// and rename, so a crashed writer never leaves a half-written entry
// behind under the real key.
//
// The file is exactly json.MarshalIndent(e, "", "  ") plus a newline:
// that is the corpus format, pinned by testdata/entry.golden.json and
// checked by FuzzStoreRoundTrip. The write is streamed: only the entry
// without its ops goes through MarshalIndent, and writeOps encodes the
// ops array in place of that encoding's null, so a trace of many
// megabytes is never held or re-indented as one document.
func (s *Store) Put(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	e.Finding.Trace = nil
	e.Finding.TraceTruncated = false
	ops := e.Trace.Ops
	e.Trace.Ops = nil
	head, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("corpus: encode %v: %w", e.Signature, err)
	}
	at := opsNull(head)
	if at < 0 {
		return fmt.Errorf("corpus: encode %v: no ops in the trace's encoding", e.Signature)
	}
	key := KeyOf(e.Signature)
	tmp, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	w := bufio.NewWriterSize(tmp, 64<<10)
	w.Write(head[:at])
	writeOps(w, ops)
	w.Write(head[at+len("null"):])
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("corpus: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("corpus: write %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("corpus: write %s: %w", key, err)
	}
	return nil
}

// opsKey is the trace's ops key as MarshalIndent lays it out: two
// levels deep, so four spaces in.
var opsKey = []byte("\n    \"ops\": ")

// opsNull returns the offset of the null that encodes nil ops in an
// indented entry, or -1. The trace's ops are the first key at that
// depth named "ops": the signature, kind and finding before it have
// none, string values escape their newlines, and only the target spec
// comes after it.
func opsNull(head []byte) int {
	i := bytes.Index(head, opsKey)
	if i < 0 || !bytes.HasPrefix(head[i+len(opsKey):], []byte("null")) {
		return -1
	}
	return i + len(opsKey)
}

// writeOps writes ops as json.MarshalIndent lays out the trace's ops
// value: null for nil ops, [] for none, otherwise one object per op,
// three levels deep, with data omitted when empty. Kinds are encoded
// by json.Marshal, once per distinct kind, so their escaping is the
// encoder's own. Each op is assembled in a reused buffer and written
// with one call; write errors latch in w and surface at its Flush.
func writeOps(w *bufio.Writer, ops []Op) {
	if ops == nil {
		w.WriteString("null")
		return
	}
	if len(ops) == 0 {
		w.WriteString("[]")
		return
	}
	type kindJSON struct {
		kind host.TraceOpKind
		enc  []byte
	}
	var kinds []kindJSON
	var buf []byte
	sep := "[\n      {\n        \"op\": "
	for _, op := range ops {
		k := slices.IndexFunc(kinds, func(kj kindJSON) bool { return kj.kind == op.Kind })
		if k < 0 {
			enc, _ := json.Marshal(string(op.Kind)) // a string always encodes
			kinds = append(kinds, kindJSON{op.Kind, enc})
			k = len(kinds) - 1
		}
		buf = append(append(buf[:0], sep...), kinds[k].enc...)
		sep = ",\n      {\n        \"op\": "
		if len(op.Data) > 0 {
			buf = append(buf, ",\n        \"data\": \""...)
			buf = base64.StdEncoding.AppendEncode(buf, op.Data)
			buf = append(buf, '"')
		}
		buf = append(buf, "\n      }"...)
		w.Write(buf)
	}
	w.WriteString("\n    ]")
}

// GetKey loads the entry stored under an explicit key (as listed by
// Keys — the CLI's addressing scheme). Entries written before
// Entry.TargetSpec carry a custom target in the JSON form
// device.DecodeSpec reads, under "spec"; GetKey decodes that into
// TargetSpec, so a rewritten entry stores the struct form instead.
func (s *Store) GetKey(key string) (Entry, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return Entry{}, fmt.Errorf("corpus: %w", err)
	}
	var v struct {
		Entry
		DocSpec json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return Entry{}, fmt.Errorf("corpus: decode %s: %w", key, err)
	}
	e := v.Entry
	if e.TargetSpec == nil && len(v.DocSpec) > 0 {
		spec, err := device.DecodeSpec(v.DocSpec)
		if err != nil {
			return Entry{}, fmt.Errorf("corpus: decode %s: %w", key, err)
		}
		e.TargetSpec = &spec
	}
	return e, nil
}

// Keys lists the stored entry keys, sorted.
func (s *Store) Keys() ([]string, error) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var keys []string
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(de.Name(), ".json"))
	}
	sort.Strings(keys)
	return keys, nil
}

// Entries loads every stored entry, in key order.
func (s *Store) Entries() ([]Entry, error) {
	keys, err := s.Keys()
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, len(keys))
	for _, key := range keys {
		e, err := s.GetKey(key)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}
