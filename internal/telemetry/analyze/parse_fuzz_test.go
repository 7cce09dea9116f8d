package analyze_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"l2fuzz/internal/telemetry"
	"l2fuzz/internal/telemetry/analyze"
)

// FuzzParseJournal feeds arbitrary bytes to the journal reader. Parse
// either rejects them or returns a run, possibly of a torn journal's
// complete prefix; every analysis and renderer must then handle that
// run without panicking.
func FuzzParseJournal(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "ci-baseline.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := analyze.Parse(bytes.NewReader(data))
		if err != nil && !errors.Is(err, telemetry.ErrTornJournal) {
			return
		}
		cov := run.Coverage()
		analyze.RenderCoverage(cov)
		analyze.CoverageSVG(cov)
		if err := analyze.CoverageCSV(io.Discard, cov); err != nil {
			t.Fatal(err)
		}
		for _, by := range []analyze.GroupBy{analyze.ByDevice, analyze.ByKind, analyze.ByVariant} {
			rows, err := run.Latency(by)
			if err != nil {
				t.Fatal(err)
			}
			analyze.RenderLatency(by, rows)
			analyze.LatencySVG(by, rows)
			if err := analyze.LatencyCSV(io.Discard, by, rows); err != nil {
				t.Fatal(err)
			}
		}
		workers := run.WorkerTimelines()
		analyze.RenderWorkers(workers, run.Duration)
		analyze.WorkersSVG(workers, run.Duration)
		if err := analyze.WorkersCSV(io.Discard, workers); err != nil {
			t.Fatal(err)
		}
		trend := analyze.CompareTrend(cov, cov, analyze.TrendOptions{})
		analyze.RenderTrend(trend)
		if err := analyze.TrendCSV(io.Discard, trend); err != nil {
			t.Fatal(err)
		}
	})
}
