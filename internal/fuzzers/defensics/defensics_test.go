package defensics

import (
	"reflect"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/fuzzers"
)

// catalogRig builds a fresh medium with one armed catalog device.
func catalogRig(t *testing.T, id string) (*device.Device, *host.Client) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	spec, err := device.CatalogSpec(id, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:08"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	return d, cl
}

// widenedRig builds a target carrying the D5 defect with its trigger
// fully widened, so Defensics's rare abnormal-PSM anomaly can fire it.
func widenedRig(t *testing.T) (*device.Device, *host.Client) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	d, err := device.New(m, device.Config{
		Addr:    radio.MustBDAddr("74:D7:EB:00:00:02"),
		Name:    "widened-rtkit",
		Profile: device.RTKitProfile("5.0", device.RTKitPSMServiceKill(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:08"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	return d, cl
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() fuzzers.Result {
		d, cl := catalogRig(t, "D2")
		res, err := New(cl, 11).Run(d.Address(), 3_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n a = %+v\n b = %+v", a, b)
	}
	if a.PacketsSent == 0 || a.Cycles == 0 || a.Elapsed == 0 {
		t.Errorf("run recorded no traffic, cycles or simulated time: %+v", a)
	}
}

// TestNoFalseCrashOnCatalogDevice pins the paper's Table VI outcome:
// Defensics's almost-entirely-well-formed traffic never fires the
// narrow injected defects of the armed catalog targets.
func TestNoFalseCrashOnCatalogDevice(t *testing.T) {
	d, cl := catalogRig(t, "D5")
	if _, err := New(cl, 1).Run(d.Address(), 5_000); err != nil {
		t.Fatal(err)
	}
	if d.Crashed() {
		t.Error("Defensics crashed the armed catalog D5; its trigger should be out of reach")
	}
}

// TestCrashesWidenedDevice is the crash-found smoke test: the
// template suite's abnormal-PSM anomaly case reaches a fully widened
// D5-style defect within a few hundred packets.
func TestCrashesWidenedDevice(t *testing.T) {
	d, cl := widenedRig(t)
	res, err := New(cl, 1).Run(d.Address(), 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Crashed() {
		t.Fatalf("device survived %d template packets", res.PacketsSent)
	}
	if res.PacketsSent >= 5_000 {
		t.Errorf("run did not stop early on the dead target (sent %d)", res.PacketsSent)
	}
}
