// Benchmarks regenerating every table and figure of the paper's
// evaluation (§IV), plus ablation benches that switch off one design
// choice each (state guiding, dependent-field preservation, the garbage
// tail) and the BenchmarkFleet farm throughput bench. Each benchmark
// runs the corresponding experiment end to end and reports the headline
// numbers as custom metrics, so `go test -bench=. -benchmem` reproduces
// the whole evaluation.
package l2fuzz_test

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"l2fuzz"
	"l2fuzz/internal/harness"
	"l2fuzz/internal/telemetry"
)

// TestMain re-execs this test binary as a farm worker subprocess when
// the proc-executor bench rows spawn it (see fleetBenchRun).
func TestMain(m *testing.M) {
	if os.Getenv("L2FUZZ_FLEET_WORKER") == "1" {
		if err := l2fuzz.RunFleetWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// BenchmarkTableV_DeviceCatalog regenerates the testbed inventory
// (paper Table V).
func BenchmarkTableV_DeviceCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.TableV()
		if len(rows) != 8 {
			b.Fatalf("catalog has %d devices", len(rows))
		}
	}
}

// BenchmarkTableVI_VulnDetection regenerates the vulnerability-detection
// results (paper Table VI): L2Fuzz against all eight devices, defects
// armed. Reported metrics: vulnerabilities found and the simulated
// seconds to the D2 (Pixel 3) detection.
func BenchmarkTableVI_VulnDetection(b *testing.B) {
	cfg := harness.DefaultTableVIConfig()
	cfg.RobustBudget = 100_000 // robustness is binary; keep benches brisk
	for i := 0; i < b.N; i++ {
		rows, err := harness.TableVI(cfg)
		if err != nil {
			b.Fatal(err)
		}
		found := 0
		var d2Seconds float64
		for _, r := range rows {
			if r.Vuln {
				found++
			}
			if r.Device == "D2" {
				d2Seconds = r.Elapsed.Seconds()
			}
		}
		if found != 5 {
			b.Fatalf("found %d vulnerabilities, want 5", found)
		}
		b.ReportMetric(float64(found), "vulns")
		b.ReportMetric(d2Seconds, "simsec/D2")
	}
}

// BenchmarkTableVII_MutationEfficiency regenerates the mutation-
// efficiency comparison (paper Table VII) at the paper's 100,000-packet
// budget. Reported metrics: L2Fuzz's MP ratio, PR ratio and efficiency
// in percent (paper: 69.96 / 32.49 / 47.22).
func BenchmarkTableVII_MutationEfficiency(b *testing.B) {
	cfg := harness.DefaultTableVIIConfig()
	for i := 0; i < b.N; i++ {
		rows, err := harness.TableVII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Fuzzer == l2fuzz.FleetL2Fuzz {
				b.ReportMetric(100*r.Summary.MPRatio, "MP%")
				b.ReportMetric(100*r.Summary.PRRatio, "PR%")
				b.ReportMetric(100*r.Summary.MutationEfficiency, "eff%")
				b.ReportMetric(r.Summary.PacketsPerSecond, "pps")
			}
		}
	}
}

// BenchmarkFig8_MPSeries regenerates the cumulative malformed-packet
// series (paper Figure 8). Reported metric: L2Fuzz's final cumulative
// malformed count (paper: 69,966 of 100,000).
func BenchmarkFig8_MPSeries(b *testing.B) {
	cfg := harness.DefaultFigureConfig()
	for i := 0; i < b.N; i++ {
		series, err := harness.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.Fuzzer == l2fuzz.FleetL2Fuzz && len(s.Points) > 0 {
				b.ReportMetric(float64(s.Points[len(s.Points)-1].Y), "malformed")
			}
		}
	}
}

// BenchmarkFig9_PRSeries regenerates the cumulative rejection series
// (paper Figure 9). Reported metric: BFuzz's final cumulative rejection
// count (paper: ~91,600 of 100,000 received).
func BenchmarkFig9_PRSeries(b *testing.B) {
	cfg := harness.DefaultFigureConfig()
	for i := 0; i < b.N; i++ {
		series, err := harness.Figure9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.Fuzzer == l2fuzz.FleetBFuzz && len(s.Points) > 0 {
				b.ReportMetric(float64(s.Points[len(s.Points)-1].Y), "rejections")
			}
		}
	}
}

// BenchmarkFig10_StateCoverage regenerates the state-coverage bars
// (paper Figure 10: 13 / 7 / 6 / 3) and, via the same rows, the
// Figure 11 per-state map.
func BenchmarkFig10_StateCoverage(b *testing.B) {
	cfg := harness.DefaultFigureConfig()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.States), string(r.Fuzzer)+"-states")
		}
		if harness.RenderFigure11(rows) == "" {
			b.Fatal("empty Figure 11")
		}
	}
}

// ablationRun measures one L2Fuzz variant on a measurement-grade D2.
func ablationRun(b *testing.B, mutate func(*l2fuzz.FuzzConfig)) l2fuzz.Metrics {
	b.Helper()
	sim, err := l2fuzz.NewSimulation()
	if err != nil {
		b.Fatal(err)
	}
	target, err := sim.AddMeasurementDevice("D2")
	if err != nil {
		b.Fatal(err)
	}
	cfg := l2fuzz.FuzzConfig{Seed: 11, MaxPackets: 40_000}
	mutate(&cfg)
	if _, err := sim.RunL2Fuzz(target, cfg); err != nil {
		b.Fatal(err)
	}
	return sim.Metrics()
}

// BenchmarkAblation_Baseline is the un-ablated reference configuration
// for the ablation benches below.
func BenchmarkAblation_Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ablationRun(b, func(*l2fuzz.FuzzConfig) {})
		b.ReportMetric(100*m.MutationEfficiency, "eff%")
		b.ReportMetric(float64(m.StatesCovered), "states")
	}
}

// BenchmarkAblation_NoStateGuiding removes state guiding entirely: no
// transition recipes, commands drawn from all 26 codes against a cold
// link. Mutation efficiency survives (core field mutating still makes
// valid packets) but state coverage collapses — the deep configuration,
// move and creation states where the paper's zero-days live are never
// reached.
func BenchmarkAblation_NoStateGuiding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ablationRun(b, func(c *l2fuzz.FuzzConfig) { c.NoStateGuiding = true })
		b.ReportMetric(100*m.MutationEfficiency, "eff%")
		b.ReportMetric(100*m.PRRatio, "PR%")
		b.ReportMetric(float64(m.StatesCovered), "states")
	}
}

// BenchmarkAblation_MutateAllFields scrambles dependent fields too (the
// dumb mutation the paper argues against): transmitted packets become
// invalid rather than valid-malformed and the MP ratio collapses.
func BenchmarkAblation_MutateAllFields(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ablationRun(b, func(c *l2fuzz.FuzzConfig) { c.MutateAllFields = true })
		b.ReportMetric(100*m.MPRatio, "MP%")
		b.ReportMetric(100*m.PRRatio, "PR%")
	}
}

// BenchmarkFleet measures farm throughput — aggregate transmitted
// packets per wall-clock second — for a fixed eight-device × L2Fuzz ×
// two-shard matrix at 1, 4 and 8 workers, establishing the scaling
// trajectory of the fleet orchestrator. The matrix and budgets are
// constant across worker counts, so pkts/s is directly comparable.
// (On a single-core host the three counts converge: the farm is CPU-
// bound, so the speedup tracks available cores.) Allocations are
// reported per worker count too: the farm is CPU-bound today, so the
// per-job allocation volume is the hot-spot budget the ROADMAP's
// fleet-scaling item chases. The engines point runs its own matrix (see
// fleetBenchRun), so compare it only with itself across snapshots.
func BenchmarkFleet(b *testing.B) {
	for _, bc := range fleetBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				report, err := fleetBenchRun(bc)
				if err != nil {
					b.Fatal(err)
				}
				if report.Failed > 0 {
					b.Fatalf("%d jobs failed", report.Failed)
				}
				wall := time.Since(start).Seconds()
				b.ReportMetric(float64(report.TotalPackets)/wall, "pkts/s")
				b.ReportMetric(float64(len(report.Findings)), "findings")
			}
		})
	}
}

// fleetBenchCase is one point of the recorded fleet trajectory.
type fleetBenchCase struct {
	name      string
	workers   int
	telemetry bool
	proc      bool
	engines   bool
	corpus    bool
}

// fleetBenchCases is the recorded fleet trajectory: the three worker
// counts, a telemetry-on point whose overhead against the plain
// workers=4 point is the budget telemetry must hold, a
// process-isolated point whose overhead against the same baseline
// prices the executor's serialization and pipe transport, an engines
// point that runs every fuzzer kind, not L2Fuzz alone, and a corpus
// point whose overhead against workers=4 prices the detection path:
// recording every job's repro trace and writing each new finding's.
var fleetBenchCases = []fleetBenchCase{
	{name: "workers=1", workers: 1},
	{name: "workers=4", workers: 4},
	{name: "workers=8", workers: 8},
	{name: "workers=4/telemetry", workers: 4, telemetry: true},
	{name: "workers=4/proc", workers: 4, proc: true},
	{name: "workers=4/engines", workers: 4, engines: true},
	{name: "workers=4/corpus", workers: 4, corpus: true},
}

// fleetBenchRun executes one BenchmarkFleet matrix once: eight devices ×
// L2Fuzz × two shards at 50k packets. With telemetry on, the farm
// carries farm counters and writes a discarded run journal — the
// full recording stack minus the disk. With proc on, jobs run in worker
// subprocesses (re-executions of this test binary, see TestMain)
// instead of the in-process pool. With engines on, the matrix is
// instead eight measurement-grade devices × all eight fuzzer kinds ×
// one shard at 4k packets: short jobs whose cost lies in the scenario
// engines and their targets' SDP, RFCOMM and signaling handlers. With
// corpus on, the farm saves its findings to a store in a fresh
// temporary directory, removed after the run.
func fleetBenchRun(bc fleetBenchCase) (*l2fuzz.FleetReport, error) {
	cfg := l2fuzz.FleetConfig{
		Shards:           2,
		BaseSeed:         7,
		Workers:          bc.workers,
		MaxPacketsPerJob: 50_000,
	}
	if bc.engines {
		cfg.Kinds = l2fuzz.FleetKinds()
		cfg.Shards = 1
		cfg.MaxPacketsPerJob = 4_000
		cfg.MeasurementGrade = true
	}
	if bc.telemetry {
		cfg.Counters = &l2fuzz.TelemetryCounters{}
		cfg.Journal = l2fuzz.NewTelemetryJournal(io.Discard)
	}
	if bc.proc {
		cfg.Executor = l2fuzz.NewFleetProcExecutor(l2fuzz.FleetProcConfig{
			Procs:   bc.workers,
			Command: []string{os.Args[0]},
			Env:     []string{"L2FUZZ_FLEET_WORKER=1"},
		})
	}
	if bc.corpus {
		dir, err := os.MkdirTemp("", "l2fuzz-bench-corpus-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if cfg.Corpus, err = l2fuzz.OpenCorpus(dir); err != nil {
			return nil, err
		}
	}
	return l2fuzz.RunFleet(cfg)
}

// TestBenchSnapshot records the fleet trajectory as a committed bench
// snapshot (the repo's BENCH_8.json):
//
//	BENCH_SNAPSHOT=BENCH_8.json go test -run TestBenchSnapshot .
//
// Skipped unless BENCH_SNAPSHOT names the output path, so regular test
// runs stay fast and the committed file only changes deliberately.
func TestBenchSnapshot(t *testing.T) {
	path := os.Getenv("BENCH_SNAPSHOT")
	if path == "" {
		t.Skip("set BENCH_SNAPSHOT=<path> to record the fleet bench trajectory")
	}
	rows := make([]telemetry.BenchRow, 0, len(fleetBenchCases))
	for _, bc := range fleetBenchCases {
		row := measureBenchRow(func() (int64, int) {
			report, err := fleetBenchRun(bc)
			if err != nil {
				t.Fatal(err)
			}
			if report.Failed > 0 {
				t.Fatalf("%d jobs failed", report.Failed)
			}
			return int64(report.TotalPackets), len(report.Findings)
		})
		row.Name = bc.name
		row.Workers = bc.workers
		row.Telemetry = bc.telemetry
		// Proc rows fuzz in worker subprocesses, so the parent's MemStats
		// deltas cover only orchestration; mark them so renderers don't
		// present the number as the farm's allocation cost.
		row.ParentOnly = bc.proc
		rows = append(rows, row)
	}
	snap := telemetry.BenchSnapshot{
		Bench:    "BenchmarkFleet",
		Go:       runtime.Version(),
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		CPUs:     runtime.NumCPU(),
		MaxProcs: runtime.GOMAXPROCS(0),
		Rows:     rows,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// measureBenchRow runs one workload and fills a row's measured fields:
// wall time, packets/s and the run's allocation cost from
// runtime.MemStats deltas. The caller sets Name, Workers and Telemetry.
func measureBenchRow(fn func() (packets int64, findings int)) telemetry.BenchRow {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	packets, findings := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	row := telemetry.BenchRow{
		Packets:     packets,
		Findings:    findings,
		WallSeconds: wall.Seconds(),
		MBPerOp:     float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		AllocsPerOp: int64(after.Mallocs - before.Mallocs),
	}
	if row.WallSeconds > 0 {
		row.PktsPerSec = float64(packets) / row.WallSeconds
	}
	return row
}

func TestMeasureFillsRow(t *testing.T) {
	row := measureBenchRow(func() (int64, int) {
		_ = make([]byte, 1<<20)
		return 5000, 2
	})
	if row.Packets != 5000 || row.Findings != 2 {
		t.Fatalf("row = %+v", row)
	}
	if row.WallSeconds <= 0 || row.PktsPerSec <= 0 {
		t.Fatalf("timing not measured: %+v", row)
	}
	if row.MBPerOp <= 0 || row.AllocsPerOp <= 0 {
		t.Fatalf("allocation cost not measured: %+v", row)
	}
}

// allocBudget is one entry of ALLOC_BUDGET.json: the committed ceiling
// on one BenchmarkFleet row's allocation cost, enforced by
// TestAllocBudget.
type allocBudget struct {
	// Bench names the guarded row, "BenchmarkFleet/<case name>".
	Bench string `json:"bench"`
	// MaxAllocsPerOp and MaxMBPerOp are the ceilings one benchmark op
	// (one full fleet run) must stay under.
	MaxAllocsPerOp int64   `json:"maxAllocsPerOp"`
	MaxMBPerOp     float64 `json:"maxMBPerOp"`
}

// TestAllocBudget is the allocation-regression gate: for every entry of
// the committed ALLOC_BUDGET.json it benchmarks that fleet row with
// allocation reporting and fails if allocs/op or MB/op exceeds the
// entry, so allocations taken off the packet path cannot silently grow
// back.
//
//	ALLOC_GATE=1 go test -run TestAllocBudget .
//
// Skipped without ALLOC_GATE=1 (the run costs a few fleet executions per
// entry); CI always sets it.
func TestAllocBudget(t *testing.T) {
	if os.Getenv("ALLOC_GATE") == "" {
		t.Skip("set ALLOC_GATE=1 to run the allocation-regression gate")
	}
	data, err := os.ReadFile("ALLOC_BUDGET.json")
	if err != nil {
		t.Fatal(err)
	}
	var budgets []allocBudget
	if err := json.Unmarshal(data, &budgets); err != nil {
		t.Fatalf("ALLOC_BUDGET.json: %v", err)
	}
	for _, budget := range budgets {
		name, _ := strings.CutPrefix(budget.Bench, "BenchmarkFleet/")
		i := slices.IndexFunc(fleetBenchCases, func(bc fleetBenchCase) bool { return bc.name == name })
		if i < 0 {
			t.Errorf("ALLOC_BUDGET.json: %q names no BenchmarkFleet row", budget.Bench)
			continue
		}
		bc := fleetBenchCases[i]
		t.Run(name, func(t *testing.T) {
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					report, err := fleetBenchRun(bc)
					if err != nil {
						b.Fatal(err)
					}
					if report.Failed > 0 {
						b.Fatalf("%d jobs failed", report.Failed)
					}
				}
			})
			allocs := res.AllocsPerOp()
			mb := float64(res.AllocedBytesPerOp()) / 1e6
			t.Logf("%s: %d allocs/op (budget %d), %.1f MB/op (budget %.1f)",
				budget.Bench, allocs, budget.MaxAllocsPerOp, mb, budget.MaxMBPerOp)
			if allocs > budget.MaxAllocsPerOp {
				t.Errorf("allocs/op regression: %d > budget %d", allocs, budget.MaxAllocsPerOp)
			}
			if mb > budget.MaxMBPerOp {
				t.Errorf("MB/op regression: %.1f > budget %.1f", mb, budget.MaxMBPerOp)
			}
		})
	}
}

// BenchmarkAblation_NoGarbage drops the garbage tail. The D2 defect needs
// the tail, so detection disappears entirely (verified in the unit
// tests); here we report the residual malformed ratio.
func BenchmarkAblation_NoGarbage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ablationRun(b, func(c *l2fuzz.FuzzConfig) { c.NoGarbage = true })
		b.ReportMetric(100*m.MPRatio, "MP%")
	}
}
