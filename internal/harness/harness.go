// Package harness regenerates every table and figure of the paper's
// evaluation section (§IV) from the simulation:
//
//	Table V    — the eight-device testbed inventory
//	Table VI   — vulnerability detection per device with elapsed time
//	Table VII  — MP ratio, PR ratio and mutation efficiency per fuzzer
//	Figure 8   — cumulative malformed packets vs transmitted packets
//	Figure 9   — cumulative rejection packets vs received packets
//	Figure 10  — L2CAP state coverage per fuzzer
//	Figure 11  — which states each fuzzer covers on the state machine
//
// Every experiment is deterministic for a given seed. Each cell runs
// the farm's own engine for its fuzzer kind (fleet.EngineFor) on a
// fresh testbed rig, with the harness's seed and budget rather than a
// farm-derived seed. The comparison experiments (Table VII, Figures
// 8-11) run each fuzzer against a fresh measurement-grade Pixel 3
// (device D2 with defects disabled, as the paper's 100,000-packet
// measurement requires the target to survive), with a trace sniffer
// standing in for Wireshark.
package harness

import (
	"fmt"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/fleet"
	"l2fuzz/internal/metrics"
	"l2fuzz/internal/testbed"
)

// compared lists the paper's four compared fuzzers in the order its
// tables and figures report them.
var compared = []fleet.Kind{fleet.KindL2Fuzz, fleet.KindDefensics, fleet.KindBFuzz, fleet.KindBSS}

// runCell runs one experiment cell: the farm engine of one of the
// compared kinds for budget packets against a fresh rig for a catalog
// device, defects disabled when measure is set. It returns the job's
// result and the rig, whose sniffer and device the experiments read.
func runCell(kind fleet.Kind, deviceID string, measure bool, seed int64, budget int) (fleet.JobResult, *testbed.Rig, error) {
	if budget < 1 {
		return fleet.JobResult{}, nil, fmt.Errorf("harness: %s budget of %d packets, want at least 1", kind, budget)
	}
	eng, ok := fleet.EngineFor(kind)
	if !ok {
		return fleet.JobResult{}, nil, fmt.Errorf("harness: unknown fuzzer %q", kind)
	}
	// The rig options own the vuln-disable flag, so the spec is
	// resolved armed.
	spec, err := device.CatalogSpec(deviceID, false)
	if err != nil {
		return fleet.JobResult{}, nil, err
	}
	rig, err := testbed.New(spec, testbed.Options{DisableVulns: measure})
	if err != nil {
		return fleet.JobResult{}, nil, err
	}
	job := fleet.Job{Device: deviceID, Spec: &spec, Kind: kind, Variant: fleet.VariantBaseline, Seed: seed, MaxPackets: budget}
	var res fleet.JobResult
	eng.Run(fleet.Config{}, rig, job, fleet.BaselineVariant(), &res)
	if res.Err != nil {
		return fleet.JobResult{}, nil, fmt.Errorf("harness: %v: %w", job, res.Err)
	}
	return res, rig, nil
}

// eachFuzzer runs every compared fuzzer for budget packets against a
// fresh measurement-grade D2 and hands visit each one's sniffer.
func eachFuzzer(seed int64, budget int, visit func(fleet.Kind, *metrics.Sniffer)) error {
	for _, kind := range compared {
		_, rig, err := runCell(kind, "D2", true, seed, budget)
		if err != nil {
			return err
		}
		visit(kind, rig.Sniffer)
	}
	return nil
}
