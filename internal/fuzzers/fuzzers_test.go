package fuzzers_test

import (
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/fuzzers"
	"l2fuzz/internal/fuzzers/bfuzz"
	"l2fuzz/internal/fuzzers/bss"
	"l2fuzz/internal/fuzzers/defensics"
)

// newRig builds a measurement-grade Pixel 3 and a tester client.
func newRig(t *testing.T) (*host.Client, radio.BDAddr) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	spec, err := device.CatalogSpec("D2", true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:01"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	return cl, d.Address()
}

func builders() map[string]func(cl *host.Client, seed int64) fuzzers.Fuzzer {
	return map[string]func(cl *host.Client, seed int64) fuzzers.Fuzzer{
		"Defensics": func(cl *host.Client, seed int64) fuzzers.Fuzzer { return defensics.New(cl, seed) },
		"BFuzz":     func(cl *host.Client, seed int64) fuzzers.Fuzzer { return bfuzz.New(cl, seed) },
		"BSS":       func(cl *host.Client, seed int64) fuzzers.Fuzzer { return bss.New(cl, seed) },
	}
}

func TestBaselinesRespectBudget(t *testing.T) {
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			cl, target := newRig(t)
			fz := build(cl, 1)
			res, err := fz.Run(target, 2_000)
			if err != nil {
				t.Fatalf("Run() error = %v", err)
			}
			if res.PacketsSent < 2_000 {
				t.Errorf("sent %d packets, want ≥ budget 2000", res.PacketsSent)
			}
			if res.PacketsSent > 2_200 {
				t.Errorf("sent %d packets, want ≈ budget (cycle overshoot only)", res.PacketsSent)
			}
			if res.Elapsed <= 0 {
				t.Errorf("Elapsed = %v; baselines must report their simulated run duration", res.Elapsed)
			}
		})
	}
}

func TestBaselinesDeterministicForSeed(t *testing.T) {
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			run := func() fuzzers.Result {
				cl, target := newRig(t)
				res, err := build(cl, 42).Run(target, 3_000)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("same seed differs: %+v vs %+v", a, b)
			}
		})
	}
}

func TestBaselinesAdvanceSimulatedClock(t *testing.T) {
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			cl, target := newRig(t)
			before := cl.Clock().Now()
			if _, err := build(cl, 7).Run(target, 500); err != nil {
				t.Fatal(err)
			}
			if cl.Clock().Now() <= before {
				t.Error("run did not advance the simulated clock")
			}
		})
	}
}

func TestBaselinesSurviveDeadTarget(t *testing.T) {
	// A target that vanishes mid-run must end the run gracefully, not
	// hang or error.
	m := radio.NewMedium(nil, radio.DefaultTiming())
	spec, err := device.CatalogSpec("D2", true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:01"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			fz := build(cl, 1)
			done := make(chan error, 1)
			go func() {
				_, err := fz.Run(d.Address(), 1_000)
				done <- err
			}()
			// The simulation is synchronous, so Run returns immediately;
			// vanish the target first on a fresh goroutine-free path is
			// not possible — instead run to completion and then verify a
			// second run against the unregistered target fails cleanly.
			if err := <-done; err != nil {
				t.Fatalf("first run error = %v", err)
			}
			m.Unregister(d.Address())
			cl.Disconnect(d.Address())
			if _, err := fz.Run(d.Address(), 1_000); err == nil {
				t.Error("run against vanished target should fail")
			}
			if err := m.Register(d.Controller()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
