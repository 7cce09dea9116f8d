package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"l2fuzz/internal/fleet/record"
	"l2fuzz/internal/telemetry"
)

// FuzzReplayJournal feeds arbitrary bytes to ReplayJournal under the CI
// farm's config. It must never panic; a journal it folds, whole or
// torn, holds only farm headers of version 3 or 4, and every job of
// the folded report is the config's own job at that index.
func FuzzReplayJournal(f *testing.F) {
	v3, err := os.ReadFile(ciBaseline)
	if err != nil {
		f.Fatal(err)
	}
	_, v4 := ciJournal(f)
	lines := bytes.SplitAfter(v4, []byte("\n"))
	last := lines[len(lines)-2] // lines ends with the empty remainder
	torn := v4[:len(v4)-len(last)/2]
	unknown := bytes.Replace(v4, []byte(`"version":4`), []byte(`"version":5`), 1)
	var doneFirst []byte // the first job-done record moved before the header
	for _, l := range lines {
		if bytes.Contains(l, []byte(`"type":"job-done"`)) {
			doneFirst = append(append([]byte(nil), l...), bytes.Replace(v4, l, nil, 1)...)
			break
		}
	}
	if _, err := ReplayJournal(ciConfig(), bytes.NewReader(torn)); !errors.Is(err, telemetry.ErrTornJournal) {
		f.Fatalf("torn seed: replay error %v, want a torn journal", err)
	}
	for name, seed := range map[string][]byte{"unknown-version": unknown, "results-before-header": doneFirst} {
		if _, err := ReplayJournal(ciConfig(), bytes.NewReader(seed)); err == nil {
			f.Fatalf("%s seed replayed", name)
		}
	}
	for _, seed := range [][]byte{v3, v4, torn, unknown, doneFirst} {
		f.Add(seed)
	}

	cfg, err := ciConfig().withDefaults()
	if err != nil {
		f.Fatal(err)
	}
	jobs := buildJobs(cfg)
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReplayJournal(ciConfig(), bytes.NewReader(data))
		if err != nil && !errors.Is(err, telemetry.ErrTornJournal) {
			return
		}
		telemetry.DecodeJournal(bytes.NewReader(data), func(rec telemetry.Record) error {
			var hdr record.Header
			if rec.Type == record.TypeFarm && json.Unmarshal(rec.Data, &hdr) == nil && hdr.Version != 3 && hdr.Version != 4 {
				t.Fatalf("replay folded a journal with a version-%d header", hdr.Version)
			}
			return nil
		})
		for _, res := range rep.Jobs {
			if i := res.Job.Index; i < 0 || i >= len(jobs) || res.Job != jobs[i] {
				t.Fatalf("replay folded job %+v, which is not in the config's matrix", res.Job)
			}
		}
	})
}
