package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func fixedClock() func() time.Time {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * time.Second)
		n++
		return t
	}
}

// TestJournalGolden pins the journal's envelope format byte-for-byte:
// a schema change must regenerate the golden deliberately.
func TestJournalGolden(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.SetClock(fixedClock())

	if err := j.Write("farm", map[string]any{"version": 1, "jobs": 3}); err != nil {
		t.Fatal(err)
	}
	var c Counters
	c.Merge(CounterSnapshot{Frames: 1, Bytes: 64, Packets: 12, Mutations: 1})
	if err := j.Sample(&c); err != nil {
		t.Fatal(err)
	}
	if err := j.Write("job-done", map[string]any{"job": map[string]any{"index": 0}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "journal.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("journal bytes diverge from golden\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.SetClock(fixedClock())
	j.Write("a", map[string]int{"x": 1})
	j.Write("b", map[string]int{"y": 2})
	j.Sample(nil)

	var types []string
	err := DecodeJournal(&buf, func(r Record) error {
		types = append(types, r.Type)
		if r.Time.IsZero() {
			t.Fatalf("record %q has zero time", r.Type)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(types, ","); got != "a,b,sample" {
		t.Fatalf("record types = %s", got)
	}
}

func TestJournalErrorLatches(t *testing.T) {
	j := NewJournal(failWriter{})
	if err := j.Write("a", 1); err == nil {
		t.Fatal("write to failing writer succeeded")
	}
	if err := j.Write("b", 2); err == nil {
		t.Fatal("second write did not return latched error")
	}
	if j.Err() == nil {
		t.Fatal("Err() nil after failed write")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestOpenJournalExclusive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run-1")
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if j.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", j.Dir(), dir)
	}
	if err := j.Write("farm", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir); err == nil {
		t.Fatal("reopening a used journal directory succeeded")
	}
	data, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"type":"farm"`)) {
		t.Fatalf("journal file missing farm record: %s", data)
	}
}

func TestStartSampler(t *testing.T) {
	var buf syncBuffer
	j := NewJournal(&buf)
	var c Counters
	stop := j.StartSampler(&c, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for buf.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if buf.Len() == 0 {
		t.Fatal("sampler wrote nothing")
	}
	n := 0
	if err := DecodeJournal(strings.NewReader(buf.String()), func(r Record) error {
		if r.Type != RecordSample {
			t.Fatalf("unexpected record type %q", r.Type)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no samples decoded")
	}
}

// syncBuffer guards a bytes.Buffer so the sampler goroutine and the
// test body can share it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJournalWriteMatchesMarshal pins Write's one-buffer encoding to
// encoding/json's: each line is json.Marshal of its Record plus a
// newline, for payloads encoding/json HTML-escapes, type tags that need
// escaping, and a clock off UTC with sub-second readings and one before
// the epoch.
func TestJournalWriteMatchesMarshal(t *testing.T) {
	zone := time.FixedZone("UTC+5:30", 5*3600+1800)
	base := time.Date(2026, 8, 8, 17, 30, 0, 0, zone)
	// Reading 0 is the epoch SetClock takes; reading 2 predates it, so
	// its offset clamps to zero.
	clock := func(n int) time.Time {
		if n == 2 {
			return base.Add(-time.Second)
		}
		return base.Add(time.Duration(n) * 1234567891)
	}
	var buf bytes.Buffer
	j := NewJournal(&buf)
	n := 0
	j.SetClock(func() time.Time { n++; return clock(n - 1) })

	type write struct {
		typ  string
		data any
	}
	writes := []write{
		{"farm", map[string]any{"html": "<a href=\"x\">&amp;</a>", "n": 1}},
		{"job-done", struct {
			S  string  `json:"s"`
			F  float64 `json:"f"`
			Ls []int   `json:"ls"`
		}{"\u2028 line & <sep>", 0.1, nil}},
		{RecordSample, nil},
	}
	for _, typ := range []string{"a<b", "a>b", "a&b", `a"b`, `a\b`, "a\tb", "a\u2028b", "aéb"} {
		writes = append(writes, write{typ, []string{typ}})
	}
	var want []byte
	for i, w := range writes {
		if err := j.Write(w.typ, w.data); err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(w.data)
		if err != nil {
			t.Fatal(err)
		}
		now := clock(i + 1)
		line, err := json.Marshal(Record{Time: now.UTC(), Offset: max(now.Sub(base), 0), Type: w.typ, Data: payload})
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Write's lines differ from json.Marshal's:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// An unmarshalable payload latches an error and writes nothing.
	before := buf.Len()
	if err := j.Write("bad", func() {}); err == nil {
		t.Fatal("unmarshalable payload accepted")
	}
	if buf.Len() != before {
		t.Fatalf("a failed write emitted %q", buf.Bytes()[before:])
	}
}
