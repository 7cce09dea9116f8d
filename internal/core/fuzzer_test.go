package core

import (
	"errors"
	"strings"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sm"
)

// rig builds a medium holding one catalog device and a tester client.
func rig(t *testing.T, id string, disableVulns bool) (*device.Device, *host.Client) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	spec, err := device.CatalogSpec(id, disableVulns)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:01"), "l2fuzz")
	if err != nil {
		t.Fatal(err)
	}
	return d, cl
}

func TestScanCollectsMetaAndPorts(t *testing.T) {
	d, cl := rig(t, "D2", true)
	report, err := Scan(cl, d.Address())
	if err != nil {
		t.Fatalf("Scan() error = %v", err)
	}
	if report.Meta.Addr != d.Address() {
		t.Errorf("Meta.Addr = %v, want %v", report.Meta.Addr, d.Address())
	}
	if report.Meta.Name != "Pixel 3" {
		t.Errorf("Meta.Name = %q", report.Meta.Name)
	}
	if report.Meta.OUI != [3]byte{0xF8, 0x8F, 0xCA} {
		t.Errorf("Meta.OUI = %X", report.Meta.OUI)
	}
	if len(report.Ports) != len(d.Ports()) {
		t.Errorf("scanned %d ports, device has %d", len(report.Ports), len(d.Ports()))
	}
	if len(report.ExploitablePSMs) == 0 {
		t.Fatal("no exploitable ports found")
	}
	// Pairing-gated ports must be excluded.
	for _, psm := range report.ExploitablePSMs {
		for _, p := range d.Ports() {
			if p.PSM == psm && p.RequiresPairing {
				t.Errorf("pairing-gated port %v marked exploitable", psm)
			}
		}
	}
}

func TestScanUnknownTarget(t *testing.T) {
	_, cl := rig(t, "D2", true)
	if _, err := Scan(cl, radio.MustBDAddr("00:00:00:00:00:99")); err == nil {
		t.Fatal("Scan(unknown) succeeded")
	}
}

func TestScanFallsBackToSDPWhenAllPortsPaired(t *testing.T) {
	m := radio.NewMedium(nil, radio.DefaultTiming())
	cfg := device.Config{
		Addr:    radio.MustBDAddr("F8:8F:CA:00:00:77"),
		Name:    "all-paired",
		Profile: device.WindowsProfile("5.0"),
		Ports: []device.ServicePort{
			{PSM: l2cap.PSMRFCOMM, Name: "RFCOMM", RequiresPairing: true},
			{PSM: l2cap.PSMHIDControl, Name: "HID", RequiresPairing: true},
		},
	}
	d, err := device.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:01"), "l2fuzz")
	if err != nil {
		t.Fatal(err)
	}
	report, err := Scan(cl, d.Address())
	if err != nil {
		t.Fatal(err)
	}
	// SDP itself is always exploitable; it is also the fallback if the
	// advertised set were fully gated.
	foundSDP := false
	for _, psm := range report.ExploitablePSMs {
		if psm == l2cap.PSMSDP {
			foundSDP = true
		}
	}
	if !foundSDP {
		t.Fatalf("ExploitablePSMs = %v, want SDP included", report.ExploitablePSMs)
	}
}

// TestFuzzerDetectsDeathAtSetup pins Run's two detection paths on a
// target that dies after a set number of signaling commands. Dying on a
// setup packet makes the next visit's setup fail, and the liveness probe
// that follows a failed setup reports the death with no fuzzed packet to
// blame; dying a few commands later, on a fuzzed packet, is caught in
// the fuzz loop, which blames that packet.
func TestFuzzerDetectsDeathAtSetup(t *testing.T) {
	for _, tc := range []struct {
		name        string
		minCommands int
		wantPackets int
		wantLast    l2cap.CommandCode // zero: no fuzzed packet blamed
	}{
		{"setup probe", 2312, 2389, 0},
		{"fuzz loop", 2400, 2394, l2cap.CodeConfigurationReq},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := radio.NewMedium(nil, radio.DefaultTiming())
			d, err := device.New(m, device.Config{
				Addr: radio.MustBDAddr("F8:8F:CA:00:00:66"),
				Name: "flooded",
				Profile: device.BlueDroidProfile("5.0", "fp", device.VulnSpec{
					ID:      "test-command-flood",
					Class:   device.ClassDoS,
					Dump:    device.DumpTombstone,
					Trigger: device.TriggerSpec{Kind: device.TriggerCommandFlood, MinCommands: tc.minCommands},
				}),
				Ports: []device.ServicePort{{PSM: l2cap.PSMAVDTP, Name: "AVDTP"}},
			})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:01"), "l2fuzz")
			if err != nil {
				t.Fatal(err)
			}
			report, err := New(cl, Config{Seed: 1, MaxPackets: 20_000}).Run(d.Address())
			if err != nil {
				t.Fatal(err)
			}
			f := report.Finding
			if !report.Found || f.Error != ErrConnectionFailed || f.State != sm.StateWaitConfig || f.PSM != l2cap.PSMSDP {
				t.Fatalf("found=%v %v in %v on %v, want Connection Failed in WAIT_CONFIG on SDP", report.Found, f.Error, f.State, f.PSM)
			}
			if report.PacketsSent != tc.wantPackets {
				t.Errorf("found after %d packets, want %d", report.PacketsSent, tc.wantPackets)
			}
			if tc.wantLast == 0 && f.LastMutation != (Mutation{}) {
				t.Errorf("LastMutation = %v, want none: the setup probe blames no fuzzed packet", f.LastMutation)
			}
			if tc.wantLast != 0 && f.LastMutation.Code != tc.wantLast {
				t.Errorf("LastMutation = %v, want a fuzzed %v", f.LastMutation, tc.wantLast)
			}
		})
	}
}

func TestFuzzerDetectsPixel3DoS(t *testing.T) {
	d, cl := rig(t, "D2", false)
	cfg := Config{Seed: 1}
	f := New(cl, cfg)
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if !report.Found {
		t.Fatalf("no vulnerability found in %d packets", report.PacketsSent)
	}
	if report.Finding.Error != ErrConnectionFailed {
		t.Errorf("error class = %v, want Connection Failed (DoS)", report.Finding.Error)
	}
	if report.Finding.Severity() != "DoS" {
		t.Errorf("severity = %q, want DoS", report.Finding.Severity())
	}
	if sm.JobOf(report.Finding.State) != sm.JobConfiguration {
		t.Errorf("finding state = %v, want a configuration-job state", report.Finding.State)
	}
	// Ground truth agrees: the service died (pages are refused), the
	// power did not (the device is still on the air).
	if err := cl.Connect(d.Address()); !errors.Is(err, radio.ErrNotConnectable) {
		t.Errorf("page after DoS: %v, want %v", err, radio.ErrNotConnectable)
	}
	if d.CrashDump() == nil || d.CrashDump().Kind != device.DumpTombstone {
		t.Error("no tombstone on the device")
	}
	if report.Elapsed <= 0 {
		t.Error("elapsed time not recorded")
	}
	t.Logf("D2 detected in %v after %d packets (%.0f pps)",
		report.Elapsed, report.PacketsSent,
		float64(report.PacketsSent)/report.Elapsed.Seconds())
}

func TestFuzzerDetectsAirPodsCrash(t *testing.T) {
	d, cl := rig(t, "D5", false)
	f := New(cl, Config{Seed: 2})
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if !report.Found {
		t.Fatalf("no vulnerability found in %d packets", report.PacketsSent)
	}
	if report.Finding.Error != ErrConnectionReset {
		t.Errorf("error class = %v, want Connection Reset", report.Finding.Error)
	}
	if report.Finding.Severity() != "Crash" {
		t.Errorf("severity = %q, want Crash", report.Finding.Severity())
	}
	// Ground truth agrees: the device left the air.
	if err := cl.Connect(d.Address()); !errors.Is(err, radio.ErrUnknownAddress) {
		t.Errorf("page after crash: %v, want %v", err, radio.ErrUnknownAddress)
	}
	t.Logf("D5 detected in %v after %d packets", report.Elapsed, report.PacketsSent)
}

func TestFuzzerFindsNothingOnRobustDevice(t *testing.T) {
	d, cl := rig(t, "D4", false) // iPhone: no injected defects
	// A short budget keeps the test quick.
	cfg := Config{Seed: 3, MaxPackets: 30_000}
	f := New(cl, cfg)
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if report.Found {
		t.Fatalf("found a vulnerability on the robust device: %+v", report.Finding)
	}
	if d.Crashed() {
		t.Error("robust device crashed")
	}
	if report.PacketsSent < 30_000 {
		t.Errorf("budget not exhausted: %d packets", report.PacketsSent)
	}
}

func TestFuzzerStateCoverageIsThirteen(t *testing.T) {
	// With vulnerabilities disabled the fuzzer completes cycles; its
	// tested-state set must be exactly the 13 master-reachable states
	// (paper Figure 10).
	d, cl := rig(t, "D2", true)
	cfg := Config{Seed: 4, MaxPackets: 120_000}
	f := New(cl, cfg)
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(report.StatesTested); got != 13 {
		t.Fatalf("states tested = %d (%v), want 13", got, report.StatesTested)
	}
	// Figure 10's 13: every state but the six the device must initiate.
	reachable := map[sm.State]bool{
		sm.StateClosed: true, sm.StateWaitConnect: true, sm.StateWaitCreate: true,
		sm.StateWaitConfig: true, sm.StateWaitConfigRsp: true, sm.StateWaitConfigReq: true,
		sm.StateWaitConfigReqRsp: true, sm.StateWaitSendConfig: true, sm.StateWaitIndFinalRsp: true,
		sm.StateWaitDisconnect: true, sm.StateWaitMove: true, sm.StateWaitMoveConfirm: true,
		sm.StateOpen: true,
	}
	for _, s := range report.StatesTested {
		if !reachable[s] {
			t.Errorf("tested %v, which should be master-unreachable", s)
		}
	}
}

func TestFuzzerDeterministicForSeed(t *testing.T) {
	run := func() *Report {
		d, cl := rig(t, "D2", false)
		f := New(cl, Config{Seed: 99})
		r, err := f.Run(d.Address())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.PacketsSent != b.PacketsSent || a.Elapsed != b.Elapsed ||
		a.Finding.State != b.Finding.State || a.Finding.PSM != b.Finding.PSM {
		t.Fatalf("same seed, different runs:\n a=%+v\n b=%+v", a, b)
	}
}

func TestFuzzerMalformedShareIsHigh(t *testing.T) {
	// Core field mutating should make the malformed share of traffic
	// high — the paper reports ~70% on the full run.
	d, cl := rig(t, "D2", true)
	cfg := Config{Seed: 5, MaxPackets: 50_000}
	f := New(cl, cfg)
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatal(err)
	}
	share := float64(report.MalformedSent) / float64(report.PacketsSent)
	if share < 0.5 {
		t.Errorf("malformed share = %.2f, want > 0.5", share)
	}
	t.Logf("malformed share: %.2f%%", 100*share)
}

func TestNoGarbageAblationPreventsD2Crash(t *testing.T) {
	// The BlueDroid defect needs the garbage tail: without it the fuzzer
	// must not find anything.
	d, cl := rig(t, "D2", false)
	cfg := Config{Seed: 6, MaxPackets: 60_000, Ablation: Ablation{NoGarbage: true}}
	f := New(cl, cfg)
	report, err := f.Run(d.Address())
	if err != nil {
		t.Fatal(err)
	}
	if report.Found {
		t.Fatalf("found %+v despite NoGarbage ablation", report.Finding)
	}
	if d.Crashed() {
		t.Error("device crashed without garbage tails")
	}
}

// TestConfigBudgets pins the budget rule: a zero budget means its
// default, and a negative one fails Run with an error naming the field.
func TestConfigBudgets(t *testing.T) {
	d, cl := rig(t, "D4", true)
	for _, tc := range []struct {
		field string
		at    func(*Config) *int
		def   int
	}{
		{"MaxPackets", func(c *Config) *int { return &c.MaxPackets }, DefaultMaxPackets},
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
