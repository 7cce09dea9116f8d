package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// JournalFile is the file name a run journal is written under inside
// its per-run directory.
const JournalFile = "journal.jsonl"

// Record is the journal's line envelope: one JSON object per line with
// a UTC timestamp, a monotonic offset from the run's clock origin, a
// record type tag and the type-specific payload. The payload schemas
// are owned by the packages that write them (the fleet package for farm
// records, this package for counter samples).
type Record struct {
	Time time.Time `json:"time"`
	// Offset is the record's position on the run's monotonic clock:
	// nanoseconds since the journal's epoch (the farm's start time once
	// SetEpoch is called, the journal's creation time before). Unlike
	// Time — a wall-clock reading that can step mid-run — offsets are
	// monotone across the whole journal, so analyzers derive their time
	// axis from them.
	Offset time.Duration   `json:"offsetNs"`
	Type   string          `json:"type"`
	Data   json.RawMessage `json:"data"`
}

// RecordSample is the record type of periodic CounterSnapshot samples
// written by Sample and StartSampler.
const RecordSample = "sample"

// Journal writes a run's record stream as JSONL. Writes are serialized
// by an internal mutex; the first write or encode error latches and
// every later call becomes a no-op, so a full disk mid-run degrades to
// a truncated journal plus a non-nil Err rather than a crashed farm.
type Journal struct {
	mu    sync.Mutex
	w     io.Writer
	c     io.Closer
	dir   string
	now   func() time.Time
	epoch time.Time
	err   error
	// line is the record being built, and enc encodes payloads onto
	// its end; both are reused from record to record.
	line lineBuffer
	enc  *json.Encoder
}

// lineBuffer is a byte slice as an io.Writer, so a json.Encoder
// appends to it in place.
type lineBuffer struct{ b []byte }

func (l *lineBuffer) Write(p []byte) (int, error) {
	l.b = append(l.b, p...)
	return len(p), nil
}

// NewJournal wraps an arbitrary writer as a journal. Close does not
// close the writer.
func NewJournal(w io.Writer) *Journal {
	j := &Journal{w: w, now: time.Now, epoch: time.Now()}
	j.enc = json.NewEncoder(&j.line)
	return j
}

// OpenJournal creates dir (and parents) and opens a fresh JournalFile
// inside it. The file is opened exclusively: reusing a directory that
// already holds a journal fails loudly instead of clobbering the prior
// run.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	path := filepath.Join(dir, JournalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	j := NewJournal(f)
	j.c = f
	j.dir = dir
	return j, nil
}

// Dir reports the per-run directory when the journal was opened with
// OpenJournal, empty otherwise.
func (j *Journal) Dir() string { return j.dir }

// SetClock replaces the timestamp source. It is a test hook: tests pin
// the clock for byte-stable goldens, and no program calls it. The offset
// epoch is re-based onto the new clock (consuming one reading), so
// pinned clocks yield deterministic offsets too.
func (j *Journal) SetClock(now func() time.Time) {
	j.mu.Lock()
	j.now = now
	j.epoch = now()
	j.mu.Unlock()
}

// SetEpoch re-bases every later record's Offset onto t — the one
// monotonic clock origin of the run. The farm calls it with its own
// start time when it writes the journal header, so counter samples,
// event records and the per-job trace spans inside them all measure
// time from the same instant; without it offsets count from the
// journal's creation, which can precede the farm by however long the
// caller took to wire things up.
func (j *Journal) SetEpoch(t time.Time) {
	j.mu.Lock()
	j.epoch = t
	j.mu.Unlock()
}

// Write appends one record of the given type. The envelope and the
// payload are encoded once, into the journal's own line buffer, and
// the line goes out in one Write only once it is complete, so an
// unmarshalable payload never emits a half-written line. The bytes are
// json.Marshal's of the Record plus a newline.
func (j *Journal) Write(typ string, data any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	now := j.now()
	// A record predating the epoch (written before the farm re-based
	// it) clamps to zero rather than going negative: analyzers treat
	// offsets as positions on the run's time axis.
	off := max(now.Sub(j.epoch), 0)
	b := append(j.line.b[:0], `{"time":"`...)
	b, err := now.UTC().AppendText(b)
	if err != nil {
		j.err = fmt.Errorf("telemetry: marshal %s envelope: %w", typ, err)
		return j.err
	}
	b = append(b, `","offsetNs":`...)
	b = strconv.AppendInt(b, int64(off), 10)
	b = append(b, `,"type":`...)
	b = appendJSONString(b, typ)
	j.line.b = append(b, `,"data":`...)
	if err := j.enc.Encode(data); err != nil {
		j.err = fmt.Errorf("telemetry: marshal %s record: %w", typ, err)
		return j.err
	}
	// Encode ends the payload with a newline: close the envelope
	// before it.
	j.line.b = append(j.line.b[:len(j.line.b)-1], '}', '\n')
	if _, err := j.w.Write(j.line.b); err != nil {
		j.err = fmt.Errorf("telemetry: write %s record: %w", typ, err)
		return j.err
	}
	return nil
}

// appendJSONString appends s as encoding/json encodes a string. Record
// types are plain ASCII tags, which need no escaping.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Err reports the first error the journal hit, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the underlying file when the journal owns one
// (OpenJournal); journals over caller-supplied writers leave the
// writer open. It returns the latched write error, if any, so a
// single deferred Close surfaces mid-run failures.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.c != nil {
		if err := j.c.Close(); err != nil && j.err == nil {
			j.err = fmt.Errorf("telemetry: %w", err)
		}
		j.c = nil
	}
	return j.err
}

// Sample writes one counter snapshot as a RecordSample record.
func (j *Journal) Sample(c *Counters) error {
	return j.Write(RecordSample, c.Snapshot())
}

// StartSampler writes a counter sample every interval until the
// returned stop function is called. Stop is idempotent and waits for
// the sampler goroutine to exit, so callers may stop before Close
// without racing a final sample against the file close.
func (j *Journal) StartSampler(c *Counters, every time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				j.Sample(c)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// maxJournalLine bounds a single journal line when decoding; a full
// campaign's job result with a large summary stays far below this.
const maxJournalLine = 16 << 20

// ErrTornJournal marks a journal whose last line was cut off mid-record,
// as a writer killed mid-write leaves it.
var ErrTornJournal = errors.New("telemetry: journal ends in a torn line")

// DecodeJournal streams records out of a persisted journal, calling fn
// for each line in order. fn returning an error stops the decode and
// returns that error, annotated with its line number. A line that does
// not parse fails the decode, except a final line without a newline:
// every earlier record has then been delivered, and the returned error
// wraps ErrTornJournal.
func DecodeJournal(r io.Reader, fn func(Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxJournalLine)
	// unterminated reports whether the token the scanner last returned
	// ended at EOF rather than at a newline.
	unterminated := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		unterminated = atEOF && bytes.IndexByte(data[:adv], '\n') < 0
		return adv, tok, err
	})
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			if unterminated {
				return fmt.Errorf("%w: line %d: %v", ErrTornJournal, line, err)
			}
			return fmt.Errorf("telemetry: journal line %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return fmt.Errorf("telemetry: journal line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("telemetry: read journal: %w", err)
	}
	return nil
}
