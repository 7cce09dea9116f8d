package smfuzz

import (
	"slices"
	"strings"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sm"
)

// targetConfig builds a BlueDroid-profile device with a data port for
// the walk to open channels against.
func targetConfig(vulns ...device.VulnSpec) device.Config {
	return device.Config{
		Addr:    radio.MustBDAddr("8C:F5:A3:00:00:61"),
		Name:    "sim-tablet",
		Profile: device.BlueDroidProfile("5.0", "vendor/tablet:5.0/fp", vulns...),
		Ports: []device.ServicePort{
			{PSM: 0x1001, Name: "OBEX Object Push"},
		},
	}
}

func rig(t *testing.T, cfg device.Config) (*device.Device, *host.Client) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	d, err := device.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:05"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	return d, cl
}

func TestFindsCCBNullDeref(t *testing.T) {
	d, cl := rig(t, targetConfig(device.BlueDroidCCBNullDeref(0x40, 1, true)))
	f := New(cl, Config{Seed: 1})
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if !report.Found {
		t.Fatalf("defect not found in %d packets", report.PacketsSent)
	}
	if !d.Crashed() {
		t.Error("device not actually crashed")
	}
	dump := d.CrashDump()
	if dump == nil || dump.VulnID != "bluedroid-ccb-null-deref" {
		t.Errorf("dump = %+v, want the CCB null-deref record", dump)
	}
	t.Logf("found after %d packets in %v at %v: %s",
		report.PacketsSent, report.Elapsed, report.FinalState, report.LastCommand)
	// The text is formatted only for a finding; pin it as the engine
	// wrote it when it formatted every command.
	if want := "RecvDisconnectReq in WAIT_SEND_CONFIG (valid)"; report.LastCommand != want {
		t.Errorf("LastCommand = %q, want %q", report.LastCommand, want)
	}
}

func TestRobustStackSurvives(t *testing.T) {
	d, cl := rig(t, targetConfig())
	cfg := Config{Seed: 2, MaxPackets: 3_000}
	f := New(cl, cfg)
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatal(err)
	}
	if report.Found {
		t.Fatalf("found a defect on the robust stack: %+v", report)
	}
	if d.Crashed() {
		t.Error("robust device crashed")
	}
}

// TestWalkCoversConfigurationJob asserts the model-guided walk actually
// leaves CLOSED: the whole point of driving the transition table is
// reaching the configuration-job states where the stateful defects live.
func TestWalkCoversConfigurationJob(t *testing.T) {
	d, cl := rig(t, targetConfig())
	cfg := Config{Seed: 3, MaxPackets: 3_000}
	f := New(cl, cfg)
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatal(err)
	}
	var sawConfig bool
	for _, s := range report.StatesVisited {
		if sm.JobOf(s) == sm.JobConfiguration {
			sawConfig = true
		}
	}
	if !sawConfig {
		t.Errorf("walk never reached a configuration-job state; visited %v",
			report.StatesVisited)
	}
}

// TestSeedDeterminism pins the engine's reproducibility contract: the
// same seed against identical fresh rigs replays the identical run.
func TestSeedDeterminism(t *testing.T) {
	run := func() *Report {
		d, cl := rig(t, targetConfig(device.BlueDroidCCBNullDeref(0x40, 1, true)))
		f := New(cl, Config{Seed: 7})
		report, err := f.Run(d.Address())
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	a, b := run(), run()
	if a.Found != b.Found || a.PacketsSent != b.PacketsSent ||
		a.Elapsed != b.Elapsed || a.FinalState != b.FinalState ||
		a.LastCommand != b.LastCommand {
		t.Errorf("runs diverged:\n a = %+v\n b = %+v", a, b)
	}
	if want := "RecvDisconnectReq in WAIT_SEND_CONFIG (valid)"; a.LastCommand != want {
		t.Errorf("LastCommand = %q, want %q", a.LastCommand, want)
	}
}

// TestDifferentSeedsDiverge guards against the seed being ignored.
func TestDifferentSeedsDiverge(t *testing.T) {
	run := func(seed int64) *Report {
		d, cl := rig(t, targetConfig(device.BlueDroidCCBNullDeref(0x40, 1, true)))
		f := New(cl, Config{Seed: seed})
		report, err := f.Run(d.Address())
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	a, b := run(3), run(4)
	if a.PacketsSent == b.PacketsSent && a.LastCommand == b.LastCommand {
		t.Errorf("seeds 3 and 4 produced identical runs (%d packets, %q)",
			a.PacketsSent, a.LastCommand)
	}
	for _, tt := range []struct {
		seed int64
		got  string
		want string
	}{
		{3, a.LastCommand, "RecvDisconnectReq in WAIT_SEND_CONFIG (valid)"},
		{4, b.LastCommand, "ConnParamUpdateRsp in WAIT_SEND_CONFIG (injected)"},
	} {
		if tt.got != tt.want {
			t.Errorf("seed %d: LastCommand = %q, want %q", tt.seed, tt.got, tt.want)
		}
	}
}

// TestCandidateTable pins step's per-state draw table at both ends:
// CLOSED (state 1) and WAIT_CONFIRM_RSP (state NumStates, the entry a
// table of only NumStates rows would lose), plus WAIT_MOVE, which no
// incoming command moves.
func TestCandidateTable(t *testing.T) {
	for s, want := range map[sm.State][]sm.Event{
		sm.StateClosed:         {sm.EvRecvConnectReq, sm.EvRecvCreateReq},
		sm.StateWaitMove:       nil,
		sm.StateWaitConfirmRsp: {sm.EvRecvMoveConfirmRsp},
	} {
		if got := candidates[s]; !slices.Equal(got, want) {
			t.Errorf("%v: candidates %v, want %v", s, got, want)
		}
	}
}

// TestConfigBudgets pins the budget rule: a zero budget means its
// default, and a negative one fails Run with an error naming the field.
func TestConfigBudgets(t *testing.T) {
	d, cl := rig(t, targetConfig())
	for _, tc := range []struct {
		field string
		at    func(*Config) *int
		def   int
	}{
		{"MaxPackets", func(c *Config) *int { return &c.MaxPackets }, defaultMaxPackets},
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
