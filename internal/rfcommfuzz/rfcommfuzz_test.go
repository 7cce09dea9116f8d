package rfcommfuzz

import (
	"errors"
	"strings"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/rfcomm"
)

// headsetConfig builds a device with a pairing-free RFCOMM port and an
// optional mux defect.
func headsetConfig(defect *rfcomm.MuxDefect) device.Config {
	return device.Config{
		Addr:    radio.MustBDAddr("8C:F5:A3:00:00:42"),
		Name:    "sim-headset",
		Profile: device.BlueDroidProfile("5.0", "vendor/headset:5.0/fp"),
		Ports: []device.ServicePort{
			{PSM: l2cap.PSMRFCOMM, Name: "RFCOMM"},
		},
		RFCOMMServices: []rfcomm.Service{
			{Channel: 1, Name: "Serial Port Profile"},
			{Channel: 2, Name: "Hands-Free"},
		},
		RFCOMMDefect: defect,
	}
}

func rig(t *testing.T, cfg device.Config) (*device.Device, *host.Client) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	d, err := device.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:03"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	return d, cl
}

func TestFindsReservedDLCIDefect(t *testing.T) {
	d, cl := rig(t, headsetConfig(rfcomm.ReservedDLCIDefect()))
	f := New(cl, Config{Seed: 1})
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if !report.Found {
		t.Fatalf("defect not found in %d frames", report.FramesSent)
	}
	if !d.Crashed() {
		t.Error("device not actually crashed")
	}
	dump := d.CrashDump()
	if dump == nil || dump.VulnID != "rfcomm-reserved-dlci-deref" {
		t.Errorf("dump = %+v, want the RFCOMM defect record", dump)
	}
	t.Logf("found after %d frames in %v (L2CAP alive: %v): %s",
		report.FramesSent, report.Elapsed, report.L2CAPAlive, report.LastFrame)
	// The text is formatted only for a finding; pin it as the engine
	// wrote it when it formatted every frame.
	if want := "SABM DLCI=63 tail=4B in connecting job"; report.LastFrame != want {
		t.Errorf("LastFrame = %q, want %q", report.LastFrame, want)
	}
}

func TestRobustMuxSurvives(t *testing.T) {
	d, cl := rig(t, headsetConfig(nil))
	cfg := Config{Seed: 2, MaxFrames: 3_000}
	f := New(cl, cfg)
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatal(err)
	}
	if report.Found {
		t.Fatalf("found a defect on the robust mux: %+v", report)
	}
	if d.Crashed() {
		t.Error("robust device crashed")
	}
	if report.FramesSent < 3_000 {
		t.Errorf("budget not exhausted: %d frames", report.FramesSent)
	}
}

func TestDisabledVulnsSuppressDefect(t *testing.T) {
	cfg := headsetConfig(rfcomm.ReservedDLCIDefect())
	cfg.DisableVulns = true
	d, cl := rig(t, cfg)
	fcfg := Config{Seed: 3, MaxFrames: 2_000}
	report, err := New(cl, fcfg).Run(d.Address())
	if err != nil {
		t.Fatal(err)
	}
	if report.Found || d.Crashed() {
		t.Fatal("disabled defect fired anyway")
	}
}

func TestRequiresReachableRFCOMM(t *testing.T) {
	// A phone whose RFCOMM port needs pairing is out of reach, exactly
	// like the paper's pairing-free constraint at the L2CAP layer.
	cfg := headsetConfig(nil)
	cfg.Ports = []device.ServicePort{
		{PSM: l2cap.PSMRFCOMM, Name: "RFCOMM", RequiresPairing: true},
	}
	d, cl := rig(t, cfg)
	_, err := New(cl, Config{Seed: 4}).Run(d.Address())
	if !errors.Is(err, ErrNoRFCOMM) {
		t.Fatalf("error = %v, want ErrNoRFCOMM", err)
	}
	_ = d
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() *Report {
		d, cl := rig(t, headsetConfig(rfcomm.ReservedDLCIDefect()))
		r, err := New(cl, Config{Seed: 7}).Run(d.Address())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.FramesSent != b.FramesSent || a.Elapsed != b.Elapsed || a.Found != b.Found {
		t.Fatalf("same seed differs: %+v vs %+v", a, b)
	}
	if want := "SABM DLCI=26 tail=7B in connecting job"; a.LastFrame != want || b.LastFrame != want {
		t.Errorf("LastFrame = %q and %q, want %q", a.LastFrame, b.LastFrame, want)
	}
}

func TestMuxCrashKillsWholeBluetoothService(t *testing.T) {
	// The injected effect mirrors the Android finding: the RFCOMM death
	// takes com.android.bluetooth with it, so even L2CAP stops answering.
	d, cl := rig(t, headsetConfig(rfcomm.ReservedDLCIDefect()))
	report, err := New(cl, Config{Seed: 1}).Run(d.Address())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Found {
		t.Fatal("defect not found")
	}
	if report.L2CAPAlive {
		t.Error("L2CAP still alive after service-killing RFCOMM crash")
	}
	if err := cl.Ping(d.Address()); err == nil {
		t.Error("ping succeeded against dead service")
	}
}

// TestConfigBudgets pins the budget rule: a zero budget means its
// default, and a negative one fails Run with an error naming the field.
func TestConfigBudgets(t *testing.T) {
	d, cl := rig(t, headsetConfig(nil))
	for _, tc := range []struct {
		field string
		at    func(*Config) *int
		def   int
	}{
		{"MaxFrames", func(c *Config) *int { return &c.MaxFrames }, defaultMaxFrames},
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
