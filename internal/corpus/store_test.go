package corpus

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/sm"
	"l2fuzz/internal/core"
)

// goldenEntry is a fixed entry whose on-disk form is pinned by
// testdata/entry.golden.json: the store's JSON schema and key
// derivation are a persistence format, so drift must be deliberate.
func goldenEntry() Entry {
	return Entry{
		Signature: core.Signature{
			State: sm.StateWaitConfig,
			PSM:   l2cap.PSM(0x0001),
			Class: core.ErrConnectionFailed,
		},
		Kind: "L2Fuzz",
		Finding: core.Finding{
			Time:  90 * time.Second,
			Error: core.ErrConnectionFailed,
			State: sm.StateWaitConfig,
			PSM:   l2cap.PSM(0x0001),
			LastMutation: core.Mutation{
				Code:       l2cap.CodeConfigurationReq,
				GarbageLen: 15,
			},
		},
		Trace: Trace{
			Seed:   42,
			Target: "D2",
			State:  sm.StateWaitConfig,
			PSM:    l2cap.PSM(0x0001),
			Ops: []Op{
				{Kind: host.TraceConnect},
				{Kind: host.TraceSend, Data: []byte{0x08, 0x00, 0x01, 0x00, 0x04, 0x01, 0x04, 0x00, 0x40, 0x00, 0x00, 0x00}},
				{Kind: host.TraceDisconnect},
			},
		},
	}
}

// TestKeyOfPinned pins the key derivation: changing it would orphan
// every existing corpus directory.
func TestKeyOfPinned(t *testing.T) {
	got := KeyOf(goldenEntry().Signature)
	want := "connection-failed--wait-config--0x0001"
	if got != want {
		t.Fatalf("KeyOf = %q, want %q", got, want)
	}
}

// TestStoreGoldenRoundTrip pins the persisted JSON byte-for-byte and
// checks Put→Get is lossless (the in-memory finding-trace fields are
// deliberately dropped: the canonical trace is Entry.Trace).
func TestStoreGoldenRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := goldenEntry()
	// The in-memory duplicate of the trace must not be persisted.
	e.Finding.Trace = e.Trace.Ops
	e.Finding.TraceTruncated = true
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}

	key := KeyOf(e.Signature)
	got, err := os.ReadFile(filepath.Join(s.dir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/entry.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("persisted entry drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}

	loaded, err := s.GetKey(key)
	if err != nil {
		t.Fatal(err)
	}
	clean := goldenEntry()
	if !reflect.DeepEqual(loaded, clean) {
		t.Errorf("round-trip mismatch:\ngot:  %+v\nwant: %+v", loaded, clean)
	}
}

func TestStoreHasKeysEntries(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := goldenEntry()
	if s.Has(e.Signature) {
		t.Fatal("empty store reports Has")
	}
	if keys, err := s.Keys(); err != nil || len(keys) != 0 {
		t.Fatalf("empty store Keys = %v, %v", keys, err)
	}
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if !s.Has(e.Signature) {
		t.Fatal("stored signature not found by Has")
	}
	other := e
	other.Signature.State = sm.StateOpen
	other.Finding.State = sm.StateOpen
	other.Trace.State = sm.StateOpen
	if s.Has(other.Signature) {
		t.Fatal("Has reports a signature that was never stored")
	}
	if err := s.Put(other); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"connection-failed--open--0x0001",
		"connection-failed--wait-config--0x0001",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("Keys = %v, want %v", keys, want)
	}
	entries, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("Entries returned %d entries, want 2", len(entries))
	}
	// Put replaces: the same signature stored again must not duplicate.
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if keys, _ := s.Keys(); len(keys) != 2 {
		t.Fatalf("Put duplicated a key: %v", keys)
	}
}

func TestStoreRejectsInvalidEntries(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := goldenEntry()
	e.Signature.Class = core.ErrNone
	if err := s.Put(e); err == nil {
		t.Error("unclassified entry accepted")
	}
	e = goldenEntry()
	e.Trace.Target = ""
	if err := s.Put(e); err == nil {
		t.Error("targetless entry accepted")
	}
}
