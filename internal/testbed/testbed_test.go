package testbed

import (
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
)

// catalogSpec resolves a Table V spec or fails the test.
func catalogSpec(t *testing.T, id string) device.Spec {
	t.Helper()
	spec, err := device.CatalogSpec(id, false)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestNewBuildsWorkingRig(t *testing.T) {
	rig, err := New(catalogSpec(t, "D2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.Client.Connect(rig.Device.Address()); err != nil {
		t.Fatal(err)
	}
	if err := rig.Client.Ping(rig.Device.Address()); err != nil {
		t.Fatal(err)
	}
	if sum := rig.Sniffer.Summary(); sum.Transmitted == 0 {
		t.Error("sniffer not tapping the rig's medium")
	}
}

// TestReplayRigCarriesNoSniffer pins the replay variant: the same
// working rig, with nothing tapping its medium.
func TestReplayRigCarriesNoSniffer(t *testing.T) {
	rig, err := New(catalogSpec(t, "D2"), Options{Replay: true})
	if err != nil {
		t.Fatal(err)
	}
	if rig.Sniffer != nil {
		t.Error("replay rig carries a sniffer")
	}
	if err := rig.Client.Connect(rig.Device.Address()); err != nil {
		t.Fatal(err)
	}
	if err := rig.Client.Ping(rig.Device.Address()); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsInvalidSpec(t *testing.T) {
	if _, err := New(device.Spec{}, Options{}); err == nil {
		t.Error("nameless spec accepted")
	}
	if _, err := New(device.Spec{Name: "ghost"}, Options{}); err == nil {
		t.Error("spec without a BD_ADDR accepted")
	}
}

// TestNewBuildsCustomSpec checks a non-catalog target goes through the
// same builder: any validated spec yields a working rig.
func TestNewBuildsCustomSpec(t *testing.T) {
	rig, err := New(device.Spec{
		Name: "iot-widget",
		Config: device.Config{
			Addr:    radio.MustBDAddr("02:00:00:AA:BB:CC"),
			Name:    "IoT Widget",
			Profile: device.BTWProfile("5.0"),
		},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.Client.Connect(rig.Device.Address()); err != nil {
		t.Fatal(err)
	}
	if err := rig.Client.Ping(rig.Device.Address()); err != nil {
		t.Fatal(err)
	}
}

// TestRFCOMMOptionOpensPort checks the RFCOMM variant: the port must be
// present and reachable without pairing on every catalog device.
func TestRFCOMMOptionOpensPort(t *testing.T) {
	spec, err := device.CatalogSpec("D4", true)
	if err != nil {
		t.Fatal(err)
	}
	rig, err := New(spec, Options{RFCOMM: true, DisableVulns: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rig.Device.Ports() {
		if p.PSM == l2cap.PSMRFCOMM {
			if p.RequiresPairing {
				t.Error("RFCOMM port still requires pairing")
			}
			return
		}
	}
	t.Error("RFCOMM port not mounted")
}

// TestRFCOMMPortsRewritesInPlace pins the port-list rewrite: a present
// RFCOMM port is made pairing-free where it stands — no duplicate is
// appended — and other ports are untouched.
func TestRFCOMMPortsRewritesInPlace(t *testing.T) {
	in := []device.ServicePort{
		{PSM: l2cap.PSMSDP, Name: "Service Discovery"},
		{PSM: l2cap.PSMRFCOMM, Name: "RFCOMM", RequiresPairing: true},
		{PSM: l2cap.PSMAVDTP, Name: "AVDTP"},
	}
	out := rfcommPorts(in)
	if len(out) != len(in) {
		t.Fatalf("rewrite changed port count: %d -> %d", len(in), len(out))
	}
	rfcommSeen := 0
	for i, p := range out {
		if p.PSM == l2cap.PSMRFCOMM {
			rfcommSeen++
			if p.RequiresPairing {
				t.Error("existing RFCOMM port not made pairing-free")
			}
			if i != 1 {
				t.Errorf("RFCOMM port moved to index %d", i)
			}
			continue
		}
		if p != in[i] {
			t.Errorf("port %d rewritten: %+v -> %+v", i, in[i], p)
		}
	}
	if rfcommSeen != 1 {
		t.Fatalf("rewrite left %d RFCOMM ports, want exactly 1", rfcommSeen)
	}
	// The input must not be mutated: the rewrite works on a copy.
	if !in[1].RequiresPairing {
		t.Error("rewrite mutated the caller's port list")
	}
}

// TestRFCOMMPortsAppendsWhenMissing pins the other branch: a port list
// without RFCOMM gains exactly one pairing-free RFCOMM port at the end.
func TestRFCOMMPortsAppendsWhenMissing(t *testing.T) {
	in := []device.ServicePort{
		{PSM: l2cap.PSMSDP, Name: "Service Discovery"},
		{PSM: l2cap.PSMAVCTP, Name: "AVCTP"},
	}
	out := rfcommPorts(in)
	if len(out) != len(in)+1 {
		t.Fatalf("rewrite produced %d ports, want %d", len(out), len(in)+1)
	}
	last := out[len(out)-1]
	if last.PSM != l2cap.PSMRFCOMM || last.RequiresPairing {
		t.Errorf("appended port = %+v, want a pairing-free RFCOMM port", last)
	}
	for i, p := range out[:len(in)] {
		if p != in[i] {
			t.Errorf("port %d rewritten: %+v -> %+v", i, in[i], p)
		}
	}
	// An empty list grows only the RFCOMM port.
	if out := rfcommPorts(nil); len(out) != 1 || out[0].PSM != l2cap.PSMRFCOMM {
		t.Errorf("rfcommPorts(nil) = %+v, want exactly the RFCOMM port", out)
	}
}
