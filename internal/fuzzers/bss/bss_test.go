package bss

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
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:09"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	return d, cl
}

// widenedRig builds a target carrying the D5 defect with its trigger
// fully widened — the easiest possible crash target.
func widenedRig(t *testing.T) (*device.Device, *host.Client) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	d, err := device.New(m, device.Config{
		Addr:    radio.MustBDAddr("74:D7:EB:00:00:03"),
		Name:    "widened-rtkit",
		Profile: device.RTKitProfile("5.0", device.RTKitPSMServiceKill(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:09"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	return d, cl
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() fuzzers.Result {
		d, cl := catalogRig(t, "D2")
		res, err := New(cl, 11).Run(d.Address(), 4_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n a = %+v\n b = %+v", a, b)
	}
	if a.PacketsSent == 0 || a.Elapsed == 0 {
		t.Errorf("run recorded no traffic or no simulated time: %+v", a)
	}
}

// TestCannotCrashEvenWidenedDevice is the paper's §VI claim made
// executable: BSS "simply mutates only one field of a packet, which is
// insufficient to trigger vulnerabilities" — its single-field echo and
// valid-PSM connect traffic cannot fire even a fully widened defect,
// let alone the narrow armed catalog ones.
func TestCannotCrashEvenWidenedDevice(t *testing.T) {
	d, cl := widenedRig(t)
	res, err := New(cl, 1).Run(d.Address(), 8_000)
	if err != nil {
		t.Fatal(err)
	}
	if d.Crashed() {
		t.Errorf("BSS crashed the widened device after %d packets; its traffic should be harmless", res.PacketsSent)
	}

	d, cl = catalogRig(t, "D5")
	if _, err := New(cl, 1).Run(d.Address(), 8_000); err != nil {
		t.Fatal(err)
	}
	if d.Crashed() {
		t.Error("BSS crashed the armed catalog D5")
	}
}
