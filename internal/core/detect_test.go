package core

import (
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
)

func TestErrorClassStringsAndSeverity(t *testing.T) {
	tests := []struct {
		class        ErrorClass
		wantString   string
		wantSeverity string
	}{
		{ErrNone, "None", "N/A"},
		{ErrConnectionFailed, "Connection Failed", "DoS"},
		{ErrConnectionAborted, "Connection Aborted", "Crash"},
		{ErrConnectionReset, "Connection Reset", "Crash"},
		{ErrConnectionRefused, "Connection Refused", "Crash"},
		{ErrTimeout, "Timeout", "Crash"},
	}
	for _, tt := range tests {
		if got := tt.class.String(); got != tt.wantString {
			t.Errorf("%d.String() = %q, want %q", tt.class, got, tt.wantString)
		}
		if got := tt.class.Severity(); got != tt.wantSeverity {
			t.Errorf("%v.Severity() = %q, want %q", tt.class, got, tt.wantSeverity)
		}
	}
}

// classificationRig builds one device the test can kill in various ways.
// testerAddr is the classification rig's tester address.
var testerAddr = radio.MustBDAddr("00:1B:DC:00:00:04")

func classificationRig(t *testing.T) (*radio.Medium, *device.Device, *host.Client) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	d, err := device.New(m, device.Config{
		Addr:    radio.MustBDAddr("F8:8F:CA:00:00:55"),
		Name:    "classify-me",
		Profile: device.BlueDroidProfile("5.0", "fp"),
		Ports:   []device.ServicePort{{PSM: l2cap.PSMAVDTP, Name: "AVDTP"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, testerAddr, "tester")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Connect(d.Address()); err != nil {
		t.Fatal(err)
	}
	return m, d, cl
}

func TestProbeLivenessHealthy(t *testing.T) {
	_, d, cl := classificationRig(t)
	if got := ProbeLiveness(cl, d.Address()); got != ErrNone {
		t.Fatalf("ProbeLiveness(healthy) = %v, want None", got)
	}
}

func TestProbeLivenessServiceDown(t *testing.T) {
	// DoS: links dropped, pages refused, device still on the air →
	// Connection Failed per §III-E ("the target Bluetooth service has
	// been shut down").
	m, d, cl := classificationRig(t)
	d.Controller().SetConnectable(false)
	m.Drop(testerAddr, d.Address())
	if got := ProbeLiveness(cl, d.Address()); got != ErrConnectionFailed {
		t.Fatalf("ProbeLiveness(service down) = %v, want Connection Failed", got)
	}
}

func TestProbeLivenessDeviceVanished(t *testing.T) {
	// Firmware crash: the device disappears entirely → Connection Reset.
	m, d, cl := classificationRig(t)
	m.Unregister(d.Address())
	if got := ProbeLiveness(cl, d.Address()); got != ErrConnectionReset {
		t.Fatalf("ProbeLiveness(vanished) = %v, want Connection Reset", got)
	}
}

func TestProbeLivenessTransientLinkLoss(t *testing.T) {
	// A dropped link that re-pages fine is not a finding.
	m, d, cl := classificationRig(t)
	m.Drop(testerAddr, d.Address())
	if got := ProbeLiveness(cl, d.Address()); got != ErrNone {
		t.Fatalf("ProbeLiveness(transient drop) = %v, want None", got)
	}
}

func TestFuzzerSurvivesRadioLoss(t *testing.T) {
	// Deterministic fault injection: every 97th frame is lost in flight.
	// The fuzzer must neither hang nor report a phantom finding on a
	// measurement-grade target.
	m := radio.NewMedium(nil, radio.DefaultTiming())
	m.FaultEveryN = 97
	spec, err := device.CatalogSpec("D2", true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:04"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 13, MaxPackets: 20_000}
	report, err := New(cl, cfg).Run(d.Address())
	if err != nil {
		t.Fatalf("Run() under loss error = %v", err)
	}
	if report.Found {
		t.Fatalf("phantom finding under packet loss: %+v", report.Finding)
	}
	if report.PacketsSent < 20_000 {
		t.Errorf("budget not exhausted under loss: %d", report.PacketsSent)
	}
}
