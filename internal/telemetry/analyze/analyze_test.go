package analyze_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"l2fuzz/internal/fleet"
	"l2fuzz/internal/telemetry"
	"l2fuzz/internal/telemetry/analyze"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// liveMatrix is a small finding-producing matrix, mirroring the fleet
// journal tests' shape so the analyzer is exercised against the same
// journals the farm pins.
func liveMatrix(workers int) fleet.Config {
	return fleet.Config{
		Devices:          []string{"D2", "D5"},
		Kinds:            []fleet.Kind{fleet.KindL2Fuzz, fleet.KindRFCOMM, fleet.KindCampaign},
		Shards:           2,
		BaseSeed:         7,
		Workers:          workers,
		MaxPacketsPerJob: 20_000,
		CampaignRuns:     2,
	}
}

// liveOnce runs one journaled live farm for all tests that need it —
// the farm is the expensive part, the analyses are cheap.
var liveOnce = sync.OnceValues(func() (struct {
	journal []byte
	report  *fleet.Report
}, error) {
	var out struct {
		journal []byte
		report  *fleet.Report
	}
	var buf bytes.Buffer
	cfg := liveMatrix(4)
	cfg.Journal = telemetry.NewJournal(&buf)
	cfg.Counters = &telemetry.Counters{}
	cfg.SampleInterval = 2 * time.Millisecond
	farm, err := fleet.Start(cfg)
	if err != nil {
		return out, err
	}
	// The sampler starts after the farm, exactly as cmd/l2farm wires it,
	// so every sample lands after the epoch-setting header.
	stop := cfg.Journal.StartSampler(cfg.Counters, cfg.SampleInterval)
	out.report = farm.Wait()
	stop()
	out.journal = buf.Bytes()
	return out, nil
})

func liveRun(t *testing.T) (*analyze.Run, *fleet.Report) {
	t.Helper()
	out, err := liveOnce()
	if err != nil {
		t.Fatal(err)
	}
	run, err := analyze.Parse(bytes.NewReader(out.journal))
	if err != nil {
		t.Fatal(err)
	}
	return run, out.report
}

// TestCoverageExactAgainstReplay is the tentpole's acceptance pin: the
// final point of every cumulative coverage curve equals the
// corresponding total of the report the same journal replays into.
func TestCoverageExactAgainstReplay(t *testing.T) {
	run, live := liveRun(t)
	replayed, err := fleet.ReplayJournal(liveMatrix(4), bytes.NewReader(mustJournal(t)))
	if err != nil {
		t.Fatal(err)
	}
	cov := run.Coverage()
	if got, want := cov.ByName(analyze.SeriesPackets).Final(), replayed.TotalPackets; got != want {
		t.Errorf("packets final = %d, want the report's TotalPackets %d", got, want)
	}
	if got, want := cov.ByName(analyze.SeriesMalformed).Final(), replayed.Metrics.Malformed; got != want {
		t.Errorf("malformed final = %d, want the report's Metrics.Malformed %d", got, want)
	}
	if got, want := cov.ByName(analyze.SeriesStates).Final(), replayed.Metrics.StatesCovered; got != want {
		t.Errorf("states final = %d, want the report's StatesCovered %d", got, want)
	}
	if got, want := cov.ByName(analyze.SeriesFindings).Final(), len(replayed.Findings); got != want {
		t.Errorf("findings final = %d, want the report's %d findings", got, want)
	}
	if cov.ByName(analyze.SeriesFindings).Final() == 0 || cov.ByName(analyze.SeriesMalformed).Final() == 0 {
		t.Error("matrix produced no findings or malformed packets; the exactness pin was vacuous")
	}
	if live.TotalPackets != replayed.TotalPackets {
		t.Errorf("live and replayed reports disagree on packets (%d vs %d)", live.TotalPackets, replayed.TotalPackets)
	}
	if cov.Interval != 2*time.Millisecond {
		t.Errorf("coverage Interval = %v, want the configured 2ms sample interval", cov.Interval)
	}
}

func mustJournal(t *testing.T) []byte {
	t.Helper()
	out, err := liveOnce()
	if err != nil {
		t.Fatal(err)
	}
	return out.journal
}

// TestSeriesTimestampsMonotoneWithinWall pins the one-clock-origin
// fix: journal record offsets, counter samples and job trace spans all
// measure from the farm's start, so the coverage series' timestamps
// are monotone and bounded by the report's total wall.
func TestSeriesTimestampsMonotoneWithinWall(t *testing.T) {
	run, live := liveRun(t)
	if live.Wall <= 0 {
		t.Fatal("live report has no wall time; the bound would be vacuous")
	}
	for _, s := range run.Coverage().Series {
		last := time.Duration(-1)
		lastVal := -1
		for i, p := range s.Points {
			if p.At < last {
				t.Fatalf("%s point %d at %v is before its predecessor %v", s.Name, i, p.At, last)
			}
			if p.Value < lastVal {
				t.Fatalf("%s point %d value %d dropped below %d (cumulative curves never fall)", s.Name, i, p.Value, lastVal)
			}
			last, lastVal = p.At, p.Value
		}
		if last > live.Wall {
			t.Errorf("%s series ends at %v, after the report's total wall %v", s.Name, last, live.Wall)
		}
	}
	if len(run.Samples) == 0 {
		t.Fatal("no counter samples landed; the sample-clock pin was vacuous")
	}
	last := time.Duration(-1)
	for i, s := range run.Samples {
		if s.At < last {
			t.Fatalf("sample %d at %v is before its predecessor %v", i, s.At, last)
		}
		last = s.At
	}
	// Spans share the origin too: every executed job's phases are
	// ordered and end within the run's journal extent.
	for _, jd := range run.Jobs {
		sp := jd.Span
		if sp.IsZero() {
			t.Fatalf("job %d has no trace span", jd.Job.Index)
		}
		if sp.QueuedNs > sp.DispatchedNs || sp.DispatchedNs > sp.StartedNs || sp.StartedNs > sp.FinishedNs {
			t.Fatalf("job %d span phases out of order: %+v", jd.Job.Index, sp)
		}
		if sp.FinishedNs > live.Wall {
			t.Errorf("job %d span finishes at %v, after the farm wall %v", jd.Job.Index, sp.FinishedNs, live.Wall)
		}
		if !jd.Failed() && sp.ExecNs <= 0 {
			t.Errorf("job %d executed but measured no execution time", jd.Job.Index)
		}
		if jd.Worker != fleet.LocalWorkerID {
			t.Errorf("job %d attributed to worker %q, want %q", jd.Job.Index, jd.Worker, fleet.LocalWorkerID)
		}
	}
}

// ciConfig mirrors the journaled-farm CI step's l2farm flags; the
// committed fixture was recorded under exactly this matrix.
func ciConfig() fleet.Config {
	return fleet.Config{
		Devices:          []string{"D2", "D5"},
		Kinds:            []fleet.Kind{fleet.KindL2Fuzz, fleet.KindRFCOMM, fleet.KindSDP, fleet.KindSM},
		BaseSeed:         1,
		MaxPacketsPerJob: 20_000,
	}
}

// TestFixtureCoverageExact pins the committed CI-baseline fixture the
// trend gate compares against: it parses, replays under the CI farm
// config, and its curve finals equal the replayed totals — so the
// fixture cannot silently drift from the ci.yml farm invocation.
func TestFixtureCoverageExact(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "ci-baseline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := analyze.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := fleet.ReplayJournal(ciConfig(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	cov := run.Coverage()
	finals := map[string]int{
		analyze.SeriesPackets:   replayed.TotalPackets,
		analyze.SeriesMalformed: replayed.Metrics.Malformed,
		analyze.SeriesStates:    replayed.Metrics.StatesCovered,
		analyze.SeriesFindings:  len(replayed.Findings),
	}
	for name, want := range finals {
		if got := cov.ByName(name).Final(); got != want {
			t.Errorf("%s final = %d, want %d", name, got, want)
		}
		if want == 0 {
			t.Errorf("replayed %s total is zero; the fixture pin is vacuous", name)
		}
	}
	if run.Header.SampleInterval != time.Second {
		t.Errorf("fixture header sample interval = %v, want the default 1s", run.Header.SampleInterval)
	}
	if len(run.Workers) == 0 {
		t.Error("fixture carries no worker lifecycle records (recorded with -exec proc)")
	}
}

// TestLatencyRows pins the breakdown axes over the fixture: every axis
// partitions the full job set, and an unknown axis is rejected.
func TestLatencyRows(t *testing.T) {
	run := fixtureRun(t)
	for _, by := range []analyze.GroupBy{analyze.ByDevice, analyze.ByKind, analyze.ByVariant} {
		rows, err := run.Latency(by)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, r := range rows {
			total += r.Jobs
			if r.Max < r.P90 || r.P90 < r.P50 || r.P50 < r.Min {
				t.Errorf("%s row %q: percentile ordering broken: min %v p50 %v p90 %v max %v",
					by, r.Group, r.Min, r.P50, r.P90, r.Max)
			}
			histSum := 0
			for _, n := range r.Hist {
				histSum += n
			}
			if histSum != r.Jobs {
				t.Errorf("%s row %q: histogram holds %d jobs, want %d", by, r.Group, histSum, r.Jobs)
			}
		}
		if total != len(run.Jobs) {
			t.Errorf("latency by %s covers %d jobs, want all %d", by, total, len(run.Jobs))
		}
	}
	if _, err := run.Latency("shoe-size"); err == nil {
		t.Error("unknown latency axis was accepted")
	}
}

// TestWorkerTimelines pins utilization reconstruction over the proc-
// executor fixture: four subprocess workers, every job attributed,
// utilization within [0, 1].
func TestWorkerTimelines(t *testing.T) {
	run := fixtureRun(t)
	rows := run.WorkerTimelines()
	if len(rows) != 4 {
		t.Fatalf("got %d worker rows, want the fixture's 4 proc workers", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.Jobs
		if r.Util < 0 || r.Util > 1 {
			t.Errorf("worker %s utilization %v outside [0, 1]", r.Worker, r.Util)
		}
		if r.Busy <= 0 {
			t.Errorf("worker %s has no busy time despite %d jobs", r.Worker, r.Jobs)
		}
		if len(r.Timeline) == 0 {
			t.Errorf("worker %s has no occupancy timeline", r.Worker)
		}
	}
	if total != len(run.Jobs) {
		t.Errorf("worker rows cover %d jobs, want all %d", total, len(run.Jobs))
	}
}

func fixtureRun(t *testing.T) *analyze.Run {
	t.Helper()
	run, err := analyze.ParseFile(filepath.Join("testdata", "ci-baseline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestParseRejectsNonJournals pins the parser guardrails.
func TestParseRejectsNonJournals(t *testing.T) {
	if _, err := analyze.Parse(bytes.NewReader(nil)); err == nil {
		t.Error("empty input parsed as a journal")
	}
	bad := []byte(`{"time":"2026-01-01T00:00:00Z","offsetNs":0,"type":"farm","data":{"version":99}}` + "\n")
	if _, err := analyze.Parse(bytes.NewReader(bad)); err == nil {
		t.Error("unknown schema version was accepted")
	}
	orphan := []byte(`{"time":"2026-01-01T00:00:00Z","offsetNs":0,"type":"job-done","data":{}}` + "\n")
	if _, err := analyze.Parse(bytes.NewReader(orphan)); err == nil {
		t.Error("job-done before the farm header was accepted")
	}
	negWall := []byte(`{"time":"2026-01-01T00:00:00Z","offsetNs":0,"type":"farm","data":{"version":3}}` + "\n" +
		`{"time":"2026-01-01T00:00:00Z","offsetNs":1,"type":"job-done","data":{"wallNs":-5}}` + "\n")
	if _, err := analyze.Parse(bytes.NewReader(negWall)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("job-done with a negative wall time: got %v, want an error naming line 2", err)
	}
}

// TestCoverageSVGGolden pins the committed example figure: the SVG in
// docs/ is exactly what the analyzer renders from the committed
// fixture, so the README's chart can never drift from the code.
// Regenerate with -update.
func TestCoverageSVGGolden(t *testing.T) {
	run := fixtureRun(t)
	got := analyze.CoverageSVG(run.Coverage())
	golden := filepath.Join("..", "..", "..", "docs", "coverage.svg")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("docs/coverage.svg drifted from the fixture rendering; regenerate with go test ./internal/telemetry/analyze -update")
	}
}

// TestRendersAreNonEmpty smoke-tests every renderer over the fixture:
// deterministic inputs, non-empty deterministic outputs.
func TestRendersAreNonEmpty(t *testing.T) {
	run := fixtureRun(t)
	cov := run.Coverage()
	lat, err := run.Latency(analyze.ByKind)
	if err != nil {
		t.Fatal(err)
	}
	wk := run.WorkerTimelines()
	for name, out := range map[string]string{
		"coverage": analyze.RenderCoverage(cov),
		"latency":  analyze.RenderLatency(analyze.ByKind, lat),
		"workers":  analyze.RenderWorkers(wk, run.Duration),
		"trend":    analyze.RenderTrend(analyze.CompareTrend(cov, cov, analyze.TrendOptions{})),
	} {
		if len(out) == 0 {
			t.Errorf("%s rendered empty", name)
		}
	}
	var csvs bytes.Buffer
	if err := analyze.CoverageCSV(&csvs, cov); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(csvs.Bytes(), []byte("\n")); lines != len(cov.ByName(analyze.SeriesPackets).Points)+1 {
		t.Errorf("coverage CSV has %d lines, want header + %d points", lines, len(cov.ByName(analyze.SeriesPackets).Points))
	}
	for name, render := range map[string]func() error{
		"latency": func() error { return analyze.LatencyCSV(&bytes.Buffer{}, analyze.ByKind, lat) },
		"workers": func() error { return analyze.WorkersCSV(&bytes.Buffer{}, wk) },
		"trend": func() error {
			return analyze.TrendCSV(&bytes.Buffer{}, analyze.CompareTrend(cov, cov, analyze.TrendOptions{}))
		},
	} {
		if err := render(); err != nil {
			t.Errorf("%s CSV: %v", name, err)
		}
	}
	for name, svg := range map[string][]byte{
		"latency": analyze.LatencySVG(analyze.ByKind, lat),
		"workers": analyze.WorkersSVG(wk, run.Duration),
	} {
		if !bytes.HasPrefix(svg, []byte("<svg ")) || !bytes.HasSuffix(bytes.TrimSpace(svg), []byte("</svg>")) {
			t.Errorf("%s SVG is not a self-contained document", name)
		}
	}
}
