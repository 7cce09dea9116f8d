package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/sm"
)

// fullMatrix is a three-device × all-kinds × two-shard matrix used by
// the scheduling-independence tests: it exercises every job kind,
// includes devices that do and do not yield findings, and is small
// enough to run twice.
func fullMatrix(workers int) Config {
	return Config{
		Devices:          []string{"D2", "D4", "D5"},
		Kinds:            AllKinds(),
		Shards:           2,
		BaseSeed:         7,
		Workers:          workers,
		MaxPacketsPerJob: 20_000,
		CampaignRuns:     2,
	}
}

// TestDeterminismAcrossWorkerCounts is acceptance criterion (a): the
// same job matrix run serially and on an eight-worker pool must yield
// identical per-job results and identical de-duplicated finding sets —
// per-job determinism must survive concurrency.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	serial, err := Run(fullMatrix(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(fullMatrix(8))
	if err != nil {
		t.Fatal(err)
	}

	if len(serial.Findings) == 0 {
		t.Fatal("matrix produced no findings; the comparison would be vacuous")
	}
	// Real per-job wall time is legitimately scheduling-dependent;
	// everything else must match.
	serial.ScrubWall()
	parallel.ScrubWall()
	if !reflect.DeepEqual(serial.Findings, parallel.Findings) {
		t.Errorf("de-duplicated finding sets differ:\nserial:   %+v\nparallel: %+v",
			serial.Findings, parallel.Findings)
	}
	if !reflect.DeepEqual(serial.Jobs, parallel.Jobs) {
		for i := range serial.Jobs {
			if !reflect.DeepEqual(serial.Jobs[i], parallel.Jobs[i]) {
				t.Errorf("job %v differs between worker counts:\nserial:   %+v\nparallel: %+v",
					serial.Jobs[i].Job, serial.Jobs[i], parallel.Jobs[i])
			}
		}
	}
	// The whole report, not just the jobs, must be scheduling-
	// independent (wall time and pool size aside).
	serial.Workers, parallel.Workers = 0, 0
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("aggregated reports differ between worker counts")
	}
}

// TestEightDeviceSweep is acceptance criterion (b): one farm run over
// the whole Table V testbed with L2Fuzz must surface findings on every
// defect-armed catalog device in a single Report.
func TestEightDeviceSweep(t *testing.T) {
	rep, err := Run(Config{
		BaseSeed:         7,
		Workers:          8,
		MaxPacketsPerJob: 1_000_000,
		// The paper never reports how long it fuzzed the robust devices;
		// cap them so the sweep spends its budget on the armed ones.
		Budgets: map[string]int{"D4": 100_000, "D6": 100_000, "D7": 100_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d jobs failed: %+v", rep.Failed, rep.Jobs)
	}
	if len(rep.Jobs) != 8 {
		t.Fatalf("sweep scheduled %d jobs, want 8", len(rep.Jobs))
	}
	for _, spec := range device.CatalogSpecs(false) {
		found := len(rep.FindingsOn(spec.Name)) > 0
		if spec.ExpectVuln && !found {
			t.Errorf("%s is defect-armed but the sweep surfaced no finding on it", spec.Name)
		}
		if !spec.ExpectVuln && found {
			t.Errorf("%s is robust but the sweep reports findings %+v", spec.Name, rep.FindingsOn(spec.Name))
		}
		if spec.ExpectVuln && rep.PerDevice[spec.Name].Crashes == 0 {
			t.Errorf("%s found but not recorded as crashed", spec.Name)
		}
	}
	if rep.TotalPackets == 0 || rep.TotalSimTime == 0 {
		t.Error("farm aggregates not recorded")
	}
	if rep.Metrics.Transmitted == 0 || rep.Metrics.StatesCovered == 0 {
		t.Errorf("merged metrics empty: %+v", rep.Metrics)
	}
	if rep.Metrics.StatesCovered != len(rep.StateCoverage) {
		t.Errorf("StatesCovered %d != |StateCoverage| %d", rep.Metrics.StatesCovered, len(rep.StateCoverage))
	}
	if rep.Render() == "" {
		t.Error("empty rendering")
	}
}

// TestRFCOMMKindMapsIntoSignatureSpace checks the §V extension jobs
// land in the shared (state, PSM, class) signature space: a mux death
// on the defect-armed D5 variant is an Open-state RFCOMM-port finding.
func TestRFCOMMKindMapsIntoSignatureSpace(t *testing.T) {
	rep, err := Run(Config{
		Devices:          []string{"D5"},
		Kinds:            []Kind{KindRFCOMM},
		BaseSeed:         7,
		Workers:          2,
		MaxPacketsPerJob: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %+v, want exactly one", rep.Findings)
	}
	sig := rep.Findings[0].Signature
	if sig.State != sm.StateOpen || sig.PSM != l2cap.PSMRFCOMM {
		t.Errorf("signature = %v, want an Open-state finding on the RFCOMM port", sig)
	}
}

// TestMeasurementGradeSweepIsQuiet checks the metrics-only farm mode:
// with defects disabled nothing crashes and nothing is found, but the
// merged trace metrics are still produced.
func TestMeasurementGradeSweepIsQuiet(t *testing.T) {
	rep, err := Run(Config{
		Devices:          []string{"D2", "D5"},
		Kinds:            []Kind{KindL2Fuzz, KindRFCOMM},
		BaseSeed:         7,
		Workers:          4,
		MaxPacketsPerJob: 15_000,
		MeasurementGrade: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Errorf("measurement-grade farm reports findings: %+v", rep.Findings)
	}
	for id, g := range rep.PerDevice {
		if g.Crashes != 0 {
			t.Errorf("%s crashed %d times on a measurement-grade farm", id, g.Crashes)
		}
	}
	if rep.Metrics.Transmitted == 0 || rep.Metrics.MPRatio == 0 {
		t.Errorf("merged metrics not measured: %+v", rep.Metrics)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Devices: []string{"D9"}}); err == nil {
		t.Error("unknown device accepted")
	}
	if _, err := Run(Config{Devices: []string{"D1", "D1"}}); err == nil {
		t.Error("duplicate device accepted")
	}
	if _, err := Run(Config{Kinds: []Kind{"AFL"}}); err == nil {
		t.Error("unknown kind accepted")
	}
	// Duplicate kinds would schedule identical same-seed jobs and
	// double-count every farm statistic.
	if _, err := Run(Config{Kinds: []Kind{KindBSS, KindBSS}}); err == nil {
		t.Error("duplicate kind accepted")
	}
	// A budget keyed by a device outside the matrix would be silently
	// ignored, leaving the device at the default budget.
	if _, err := Run(Config{Devices: []string{"D1"}, Budgets: map[string]int{"d1": 100}}); err == nil {
		t.Error("budget for out-of-matrix device accepted")
	}
	if _, err := Run(Config{Devices: []string{"D1"}, Budgets: map[string]int{"D1": 0}}); err == nil {
		t.Error("non-positive budget accepted")
	}
}

// TestConfigCounts pins the rule for the farm's counts: zero means the
// documented default, and a negative value is an error naming the field.
// Only zero and negative values are tried; a large one would start that
// many workers.
func TestConfigCounts(t *testing.T) {
	for _, tc := range []struct {
		field string
		at    func(*Config) *int
		def   int
	}{
		{"Shards", func(c *Config) *int { return &c.Shards }, 1},
		{"Workers", func(c *Config) *int { return &c.Workers }, runtime.GOMAXPROCS(0)},
		{"MaxPacketsPerJob", func(c *Config) *int { return &c.MaxPacketsPerJob }, DefaultMaxPacketsPerJob},
		{"CampaignRuns", func(c *Config) *int { return &c.CampaignRuns }, DefaultCampaignRuns},
	} {
		cfg := Config{Devices: []string{"D2"}}
		if got, err := cfg.withDefaults(); err != nil || *tc.at(&got) != tc.def {
			t.Errorf("%s 0: got %d, %v; want the default %d", tc.field, *tc.at(&got), err, tc.def)
		}
		*tc.at(&cfg) = -3
		if _, err := cfg.withDefaults(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s -3: error %v, want one naming the field", tc.field, err)
		}
	}
}

// TestJobSeedsDistinctAndStable pins the seed derivation: every cell
// and shard of a matrix gets a distinct seed, and the derivation does
// not depend on the matrix shape the job appears in.
func TestJobSeedsDistinctAndStable(t *testing.T) {
	cfg, err := Config{Shards: 3, BaseSeed: 99, Kinds: AllKinds()}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	jobs := buildJobs(cfg)
	if want := 8 * len(AllKinds()) * 3; len(jobs) != want {
		t.Fatalf("matrix has %d jobs, want %d", len(jobs), want)
	}
	seeds := make(map[int64]Job)
	for _, j := range jobs {
		if prev, dup := seeds[j.Seed]; dup {
			t.Errorf("jobs %v and %v share seed %d", prev, j, j.Seed)
		}
		seeds[j.Seed] = j
		if j.Seed != jobSeed(99, j.Device, j.Kind, j.Variant, j.Shard) {
			t.Errorf("seed for %v not a pure function of its coordinates", j)
		}
	}
}

// TestReportJSONMarshalable pins that a live farm report serializes as
// JSON — the telemetry endpoint's /snapshot path marshals Aggregator
// snapshots verbatim — with each job in its record form, the same
// object the journal writes.
func TestReportJSONMarshalable(t *testing.T) {
	report, err := Run(Config{
		Devices:          []string{"D2"},
		Shards:           1,
		BaseSeed:         7,
		Workers:          1,
		MaxPacketsPerJob: 15_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatalf("farm report does not marshal: %v", err)
	}
	if !bytes.Contains(data, []byte(`"device":"D2"`)) {
		t.Fatalf("marshaled report names no D2 job:\n%s", data)
	}
}
