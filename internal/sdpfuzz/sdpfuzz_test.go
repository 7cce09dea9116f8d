package sdpfuzz

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sdp"
)

// targetConfig builds a device whose SDP server carries the given
// defect; the implicit SDP port is enough surface.
func targetConfig(defect *sdp.ServerDefect) device.Config {
	return device.Config{
		Addr:      radio.MustBDAddr("8C:F5:A3:00:00:51"),
		Name:      "sim-speaker",
		Profile:   device.BlueDroidProfile("5.0", "vendor/speaker:5.0/fp"),
		SDPDefect: defect,
	}
}

func rig(t *testing.T, cfg device.Config) (*device.Device, *host.Client) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	d, err := device.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:04"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	return d, cl
}

func TestFindsOverreadDefect(t *testing.T) {
	d, cl := rig(t, targetConfig(sdp.OverreadDefect()))
	f := New(cl, Config{Seed: 1})
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if !report.Found {
		t.Fatalf("defect not found in %d PDUs", report.PDUsSent)
	}
	if !d.Crashed() {
		t.Error("device not actually crashed")
	}
	dump := d.CrashDump()
	if dump == nil || dump.VulnID != "sdp-declared-length-overread" {
		t.Errorf("dump = %+v, want the SDP overread record", dump)
	}
	t.Logf("found after %d PDUs in %v: %s", report.PDUsSent, report.Elapsed, report.LastPDU)
	// The text is formatted only for a finding; pin it as the engine
	// wrote it when it formatted every request.
	if want := "reserved element descriptor (size index 7)"; report.LastPDU != want {
		t.Errorf("LastPDU = %q, want %q", report.LastPDU, want)
	}
}

// TestMutationsPinned pins the first requests and descriptions of a
// seed-1 run, byte for byte and character for character, as captured
// when every request was described with fmt.Sprintf as it was built.
// The draw covers all six shapes.
func TestMutationsPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/mutations_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	f := New(nil, Config{Seed: 1})
	var b strings.Builder
	for range strings.Count(string(want), "\n") {
		raw, m := f.mutate()
		fmt.Fprintf(&b, "%q %x\n", m, raw)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("mutations differ from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestRobustServerSurvives(t *testing.T) {
	d, cl := rig(t, targetConfig(nil))
	cfg := Config{Seed: 2, MaxPDUs: 3_000}
	f := New(cl, cfg)
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatal(err)
	}
	if report.Found {
		t.Fatalf("found a defect on the robust server: %+v", report)
	}
	if d.Crashed() {
		t.Error("robust device crashed")
	}
	if report.PDUsSent < cfg.MaxPDUs {
		t.Errorf("PDUsSent = %d, want the full %d budget", report.PDUsSent, cfg.MaxPDUs)
	}
}

// TestSeedDeterminism pins the engine's reproducibility contract: the
// same seed against identical fresh rigs replays the identical run.
func TestSeedDeterminism(t *testing.T) {
	run := func() *Report {
		d, cl := rig(t, targetConfig(sdp.OverreadDefect()))
		f := New(cl, Config{Seed: 7})
		report, err := f.Run(d.Address())
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	a, b := run(), run()
	if a.Found != b.Found || a.PDUsSent != b.PDUsSent ||
		a.Elapsed != b.Elapsed || a.LastPDU != b.LastPDU {
		t.Errorf("runs diverged:\n a = %+v\n b = %+v", a, b)
	}
	if want := "header underdeclares 6 parameter bytes"; a.LastPDU != want {
		t.Errorf("LastPDU = %q, want %q", a.LastPDU, want)
	}
}

// TestDifferentSeedsDiverge guards against the seed being ignored.
func TestDifferentSeedsDiverge(t *testing.T) {
	run := func(seed int64) *Report {
		d, cl := rig(t, targetConfig(sdp.OverreadDefect()))
		f := New(cl, Config{Seed: seed})
		report, err := f.Run(d.Address())
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	a, b := run(3), run(4)
	if a.PDUsSent == b.PDUsSent && a.LastPDU == b.LastPDU {
		t.Errorf("seeds 3 and 4 produced identical runs (%d PDUs, %q)",
			a.PDUsSent, a.LastPDU)
	}
	for _, tt := range []struct {
		seed int64
		got  string
		want string
	}{
		{3, a.LastPDU, "header underdeclares 1 parameter bytes"},
		{4, b.LastPDU, "header overdeclares 21 parameter bytes (+4)"},
	} {
		if tt.got != tt.want {
			t.Errorf("seed %d: LastPDU = %q, want %q", tt.seed, tt.got, tt.want)
		}
	}
}

// TestConfigBudgets pins the budget rule: a zero budget means its
// default, and a negative one fails Run with an error naming the field.
func TestConfigBudgets(t *testing.T) {
	d, cl := rig(t, targetConfig(nil))
	for _, tc := range []struct {
		field string
		at    func(*Config) *int
		def   int
	}{
		{"MaxPDUs", func(c *Config) *int { return &c.MaxPDUs }, defaultMaxPDUs},
	} {
		var cfg Config
		if got := New(cl, cfg).cfg; *tc.at(&got) != tc.def {
			t.Errorf("%s 0: got %d, want the default %d", tc.field, *tc.at(&got), tc.def)
		}
		*tc.at(&cfg) = -3
		if _, err := New(cl, cfg).Run(d.Address()); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s -3: error %v, want one naming the field", tc.field, err)
		}
	}
}
