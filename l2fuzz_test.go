package l2fuzz_test

import (
	"strings"
	"testing"

	"l2fuzz"
)

func TestSimulationQuickstartFlow(t *testing.T) {
	sim, err := l2fuzz.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	target, err := sim.AddCatalogDevice("D2")
	if err != nil {
		t.Fatal(err)
	}
	report, err := sim.RunL2Fuzz(target, l2fuzz.FuzzConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Found {
		t.Fatalf("no vulnerability found on D2 in %d packets", report.PacketsSent)
	}
	if report.Finding.Error != l2fuzz.ErrConnectionFailed {
		t.Errorf("error class = %v, want Connection Failed", report.Finding.Error)
	}
	crashed, err := sim.Crashed(target)
	if err != nil || !crashed {
		t.Fatalf("Crashed() = (%v, %v), want (true, nil)", crashed, err)
	}
	dump, err := sim.CrashDump(target)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump, "l2c_csm_execute") {
		t.Errorf("tombstone missing fault frame:\n%s", dump)
	}
	// Manual reset restores the device.
	if err := sim.ResetDevice(target); err != nil {
		t.Fatal(err)
	}
	crashed, err = sim.Crashed(target)
	if err != nil || crashed {
		t.Fatalf("after reset Crashed() = (%v, %v), want (false, nil)", crashed, err)
	}
}

func TestSimulationScanOnly(t *testing.T) {
	sim, err := l2fuzz.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	target, err := sim.AddCatalogDevice("D5")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := sim.Scan(target)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Meta.Name != "AirPods" {
		t.Errorf("scan name = %q", scan.Meta.Name)
	}
	if len(scan.Ports) != 6 {
		t.Errorf("D5 has %d ports, want 6", len(scan.Ports))
	}
	if len(scan.ExploitablePSMs) == 0 {
		t.Error("no exploitable ports")
	}
	ports, err := sim.Ports(target)
	if err != nil || len(ports) != 6 {
		t.Errorf("Ports() = (%d, %v)", len(ports), err)
	}
}

func TestSimulationBaselinesAndMetrics(t *testing.T) {
	sim, err := l2fuzz.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	target, err := sim.AddMeasurementDevice("D2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunBaseline(target, l2fuzz.BaselineBSS, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsSent < 200 {
		t.Errorf("BSS sent %d packets, want ≥ 200", res.PacketsSent)
	}
	m := sim.Metrics()
	if m.Transmitted < 200 {
		t.Errorf("metrics transmitted = %d", m.Transmitted)
	}
	if m.MPRatio != 0 {
		t.Errorf("BSS MP ratio = %.4f, want 0", m.MPRatio)
	}
	if len(sim.StateCoverage()) == 0 {
		t.Error("no state coverage inferred")
	}
	if _, err := sim.RunBaseline(target, "Nope", 1, 10); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestSimulationCustomDevice(t *testing.T) {
	sim, err := l2fuzz.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	target, err := sim.AddCustomDevice("my-gadget", "02:00:00:00:00:01",
		l2fuzz.WindowsProfile("5.0"), []l2fuzz.ServicePort{
			{PSM: 0x0019, Name: "AVDTP"},
		})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sim.RunL2Fuzz(target, l2fuzz.FuzzConfig{Seed: 3, MaxPackets: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if report.Found {
		t.Error("robust custom device reported vulnerable")
	}
	if report.PacketsSent < 5_000 {
		t.Errorf("budget not used: %d", report.PacketsSent)
	}
}

func TestSimulationErrors(t *testing.T) {
	sim, err := l2fuzz.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddCatalogDevice("D42"); err == nil {
		t.Error("bad catalog ID accepted")
	}
	if _, err := sim.Scan("ghost"); err == nil {
		t.Error("scan of unknown device accepted")
	}
	if _, err := sim.RunL2Fuzz("ghost", l2fuzz.FuzzConfig{}); err == nil {
		t.Error("fuzz of unknown device accepted")
	}
	if _, err := sim.AddCustomDevice("x", "not-a-mac", l2fuzz.IOSProfile("4.2"), nil); err == nil {
		t.Error("bad MAC accepted")
	}
	if err := sim.ResetDevice("ghost"); err == nil {
		t.Error("reset of unknown device accepted")
	}
}

func TestSimulationDeviceListing(t *testing.T) {
	sim, err := l2fuzz.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"D3", "D1", "D2"} {
		if _, err := sim.AddCatalogDevice(id); err != nil {
			t.Fatal(err)
		}
	}
	got := sim.Devices()
	if len(got) != 3 || got[0] != "D1" || got[1] != "D2" || got[2] != "D3" {
		t.Errorf("Devices() = %v, want sorted [D1 D2 D3]", got)
	}
}

func TestRFCOMMExtensionThroughPublicAPI(t *testing.T) {
	sim, err := l2fuzz.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	target, err := sim.AddRFCOMMDevice("headset", "8C:F5:A3:00:00:42",
		l2fuzz.BlueDroidProfile("5.0", "fp"),
		[]l2fuzz.ServicePort{{PSM: 0x0003, Name: "RFCOMM"}},
		[]l2fuzz.RFCOMMService{{Channel: 1, Name: "SPP"}},
		true)
	if err != nil {
		t.Fatal(err)
	}
	report, err := sim.RunRFCOMMFuzz(target, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Found {
		t.Fatalf("extension fuzzer found nothing in %d frames", report.FramesSent)
	}
	dump, err := sim.CrashDump(target)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump, "rfc_mx_sm_execute") {
		t.Errorf("dump missing RFCOMM fault frame:\n%s", dump)
	}
	// The device recovers for another run.
	if err := sim.ResetDevice(target); err != nil {
		t.Fatal(err)
	}
	if crashed, _ := sim.Crashed(target); crashed {
		t.Error("device still crashed after reset")
	}
}

// A simulation device is armed the way a farm rig is: catalog D2 carries
// the SDP parser defect a farm SDP job finds, its measurement-grade twin
// does not.
func TestSimulationArmsTheFarmsSDPDefect(t *testing.T) {
	for _, armed := range []bool{true, false} {
		sim, err := l2fuzz.NewSimulation()
		if err != nil {
			t.Fatal(err)
		}
		add := sim.AddMeasurementDevice
		if armed {
			add = sim.AddCatalogDevice
		}
		target, err := add("D2")
		if err != nil {
			t.Fatal(err)
		}
		report, err := sim.RunSDPFuzz(target, 1, 5_000)
		if err != nil {
			t.Fatal(err)
		}
		if report.Found != armed {
			t.Errorf("armed %v: found %v after %d PDUs", armed, report.Found, report.PDUsSent)
		}
	}
}

func TestResetAfterFirmwareCrashRestoresAir(t *testing.T) {
	sim, err := l2fuzz.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	target, err := sim.AddCatalogDevice("D5")
	if err != nil {
		t.Fatal(err)
	}
	report, err := sim.RunL2Fuzz(target, l2fuzz.FuzzConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Found {
		t.Fatal("D5 defect did not fire")
	}
	if err := sim.ResetDevice(target); err != nil {
		t.Fatal(err)
	}
	// The device is back on the air: a scan succeeds.
	if _, err := sim.Scan(target); err != nil {
		t.Fatalf("scan after reset: %v", err)
	}
}

func TestTriageThroughPublicAPI(t *testing.T) {
	sim, err := l2fuzz.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	target, err := sim.AddCatalogDevice("D2")
	if err != nil {
		t.Fatal(err)
	}
	report, err := sim.RunL2Fuzz(target, l2fuzz.FuzzConfig{Seed: 1})
	if err != nil || !report.Found {
		t.Fatalf("run = (%v, found=%v)", err, report != nil && report.Found)
	}
	cause, err := sim.Triage(target, report.Finding)
	if err != nil {
		t.Fatal(err)
	}
	text := cause.Render()
	for _, want := range []string{"CWE-476", "L2CAP", "high"} {
		if !strings.Contains(text, want) {
			t.Errorf("root cause missing %q:\n%s", want, text)
		}
	}
}

// TestFleetStreamingThroughPublicAPI checks the streamed farm exposed
// by StartFleet agrees with the batch RunFleet over the same matrix,
// and that findings arrive as FleetNewFinding events.
func TestFleetStreamingThroughPublicAPI(t *testing.T) {
	cfg := l2fuzz.FleetConfig{
		Devices:          []string{"D2", "D5"},
		Kinds:            []l2fuzz.FleetKind{l2fuzz.FleetL2Fuzz, l2fuzz.FleetRFCOMM},
		BaseSeed:         7,
		Workers:          4,
		MaxPacketsPerJob: 20_000,
	}
	batch, err := l2fuzz.RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	farm, err := l2fuzz.StartFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var live []l2fuzz.FleetFinding
	for ev := range farm.Events() {
		if ev.Type == l2fuzz.FleetNewFinding {
			live = append(live, *ev.Finding)
		}
	}
	streamed := farm.Wait()

	batch.ScrubWall()
	streamed.ScrubWall()
	if b, s := batch.Render(), streamed.Render(); b != s {
		t.Errorf("streamed farm disagrees with batch farm:\nbatch:\n%s\nstreamed:\n%s", b, s)
	}
	if len(live) != len(streamed.Findings) {
		t.Errorf("%d NewFinding events for %d report findings", len(live), len(streamed.Findings))
	}
	if len(streamed.Findings) == 0 {
		t.Error("matrix produced no findings; the event check would be vacuous")
	}
	if streamed.Metrics.StatesCovered != len(streamed.Metrics.States) ||
		len(streamed.StateCoverage) != streamed.Metrics.StatesCovered {
		t.Errorf("state coverage inconsistent: %d / %v / %v",
			streamed.Metrics.StatesCovered, streamed.Metrics.States, streamed.StateCoverage)
	}
}

// TestDeviceSpecThroughPublicAPI drives the target-spec surface end to
// end: a JSON spec decoded with ParseDeviceSpec fuzzes in a Simulation
// via AddDeviceSpec, a FleetDeviceSpec-built target joins a farm next
// to a catalog device via CustomDevices, and the helpers reject the
// inputs they must.
func TestDeviceSpecThroughPublicAPI(t *testing.T) {
	spec, err := l2fuzz.ParseDeviceSpec([]byte(`{
	  "name": "smart-toaster",
	  "addr": "02:42:AC:11:00:02",
	  "profile": {"stack": "bluez", "btVersion": "5.0"},
	  "ports": [{"psm": 1, "name": "Service Discovery"}, {"psm": 4097, "name": "toast-control"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := l2fuzz.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	target, err := sim.AddDeviceSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if target != "smart-toaster" {
		t.Errorf("tracked as %q, want the spec name", target)
	}
	report, err := sim.RunL2Fuzz(target, l2fuzz.FuzzConfig{Seed: 3, MaxPackets: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if report.PacketsSent == 0 {
		t.Error("decoded spec fuzzed zero packets")
	}

	// A defect-armed API-built spec in a farm next to a catalog device.
	cam, err := l2fuzz.FleetDeviceSpec("iot-cam", "02:EE:10:00:00:01",
		l2fuzz.BlueDroidProfile("5.1", "vendor/iotcam:13",
			l2fuzz.BlueDroidCCBNullDeref(0x40, 2, true)),
		[]l2fuzz.ServicePort{{PSM: 0x1001, Name: "camera-control"}})
	if err != nil {
		t.Fatal(err)
	}
	if !cam.ExpectVuln {
		t.Error("defect-armed spec not marked ExpectVuln")
	}
	farm, err := l2fuzz.RunFleet(l2fuzz.FleetConfig{
		Devices:          []string{"D4"},
		CustomDevices:    []l2fuzz.DeviceSpec{cam},
		BaseSeed:         7,
		Workers:          2,
		MaxPacketsPerJob: 20_000,
		Budgets:          map[string]int{"iot-cam": 10_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if farm.PerDevice["iot-cam"] == nil || farm.PerDevice["D4"] == nil {
		t.Fatalf("per-device sections = %v, want D4 and iot-cam", farm.PerDevice)
	}
	if len(farm.FindingsOn("iot-cam")) == 0 {
		t.Error("widened defect surfaced no finding on the custom target")
	}

	if _, err := l2fuzz.ParseDeviceSpec([]byte("{\n  \"name\": 7\n}")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("malformed spec error %v carries no line position", err)
	}
	if _, err := l2fuzz.FleetDeviceSpec("", "02:00:00:00:00:01", l2fuzz.BTWProfile("5.0"), nil); err == nil {
		t.Error("nameless FleetDeviceSpec accepted")
	}
	if got := l2fuzz.CatalogDeviceIDs(); len(got) != 8 || got[0] != "D1" || got[7] != "D8" {
		t.Errorf("CatalogDeviceIDs() = %v", got)
	}
	if spec, err := l2fuzz.CatalogDeviceSpec("D5"); err != nil || spec.Name != "D5" || !spec.ExpectVuln {
		t.Errorf("CatalogDeviceSpec(D5) = %+v, %v", spec, err)
	}
	if _, err := l2fuzz.CatalogDeviceSpec("D9"); err == nil {
		t.Error("CatalogDeviceSpec(D9) accepted")
	}
}
