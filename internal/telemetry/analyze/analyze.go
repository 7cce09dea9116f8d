package analyze

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"l2fuzz/internal/fleet/record"
	"l2fuzz/internal/telemetry"
)

// minVersion is the oldest journal schema Parse reads: version 2
// journals (pre-span) parse with zero spans and an unknown sample
// interval. The newest is record.Version.
const minVersion = 2

// JobDone is one job-done record with its envelope offset.
type JobDone struct {
	// At is the record's envelope offset: when the result folded, on
	// the run's monotonic clock.
	At time.Duration
	record.Result
}

// Sample is one periodic counter snapshot with its envelope offset.
type Sample struct {
	At time.Duration `json:"-"`
	telemetry.CounterSnapshot
}

// WorkerChange is one worker lifecycle record with its envelope
// offset.
type WorkerChange struct {
	At time.Duration
	record.WorkerChange
}

// Run is one parsed journal, ready for the figure builders and Diff.
type Run struct {
	Header   record.Header
	Jobs     []JobDone // in journal (fold) order
	Findings []record.Finding
	Samples  []Sample
	Workers  []WorkerChange
	// Duration is the largest envelope offset in the journal — the
	// run's observed wall extent on its own monotonic clock.
	Duration time.Duration
}

// Parse decodes a farm journal stream. The journal must open with a
// farm header of a schema version this package reads; job-started
// records, which nothing here consumes, are skipped. A journal
// whose writer died mid-record parses into the run of its complete
// records, returned with an error wrapping telemetry.ErrTornJournal.
func Parse(r io.Reader) (*Run, error) {
	run := &Run{}
	sawHeader := false
	err := telemetry.DecodeJournal(r, func(rec telemetry.Record) error {
		if rec.Offset > run.Duration {
			run.Duration = rec.Offset
		}
		switch rec.Type {
		case record.TypeFarm:
			if err := json.Unmarshal(rec.Data, &run.Header); err != nil {
				return fmt.Errorf("analyze: farm record: %w", err)
			}
			if v := run.Header.Version; v < minVersion || v > record.Version {
				return fmt.Errorf("analyze: journal schema version %d, this build reads %d..%d", v, minVersion, record.Version)
			}
			sawHeader = true
		case record.TypeJobDone:
			if !sawHeader {
				return errors.New("analyze: journal carries results before its farm header")
			}
			res, err := record.DecodeResult(rec.Data)
			if err != nil {
				return fmt.Errorf("analyze: %w", err)
			}
			run.Jobs = append(run.Jobs, JobDone{At: rec.Offset, Result: res})
		case record.TypeFinding:
			var f record.Finding
			if err := json.Unmarshal(rec.Data, &f); err != nil {
				return fmt.Errorf("analyze: finding record: %w", err)
			}
			run.Findings = append(run.Findings, f)
		case telemetry.RecordSample:
			var s Sample
			if err := json.Unmarshal(rec.Data, &s.CounterSnapshot); err != nil {
				return fmt.Errorf("analyze: sample record: %w", err)
			}
			s.At = rec.Offset
			run.Samples = append(run.Samples, s)
		case record.TypeWorker:
			w := WorkerChange{At: rec.Offset}
			if err := json.Unmarshal(rec.Data, &w.WorkerChange); err != nil {
				return fmt.Errorf("analyze: worker record: %w", err)
			}
			run.Workers = append(run.Workers, w)
		}
		return nil
	})
	if err != nil && !errors.Is(err, telemetry.ErrTornJournal) {
		return nil, err
	}
	if !sawHeader {
		return nil, errors.New("analyze: not a farm journal (no farm header record)")
	}
	return run, err
}

// ParseFile parses a journal from disk. path may be the journal file
// itself, a run directory holding one, or a directory of run
// directories (the l2farm -journal layout), in which case the
// lexically last run — the newest, under the run-<timestamp> naming —
// is picked.
func ParseFile(path string) (*Run, error) {
	resolved, err := ResolveJournal(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(resolved)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// ResolveJournal maps a user-supplied path to a journal file, applying
// ParseFile's directory conventions.
func ResolveJournal(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if !fi.IsDir() {
		return path, nil
	}
	direct := filepath.Join(path, telemetry.JournalFile)
	if _, err := os.Stat(direct); err == nil {
		return direct, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return "", err
	}
	var last string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		nested := filepath.Join(path, e.Name(), telemetry.JournalFile)
		if _, err := os.Stat(nested); err == nil {
			last = nested
		}
	}
	if last == "" {
		return "", fmt.Errorf("analyze: no %s under %s", telemetry.JournalFile, path)
	}
	return last, nil
}
