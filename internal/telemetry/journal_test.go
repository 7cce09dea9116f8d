package telemetry

import (
	"bytes"
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
	c.AddFrames(1, 64)
	c.AddPackets(12)
	c.AddMutations(1)
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
