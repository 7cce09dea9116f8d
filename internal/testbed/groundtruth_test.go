package testbed

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/sm"
	"l2fuzz/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestStatesVisitedGolden pins the device's ground-truth state coverage
// next to the sniffer's trace-inferred coverage: L2Fuzz runs 30k packets
// against every measurement-grade catalog target at seeds 1 and 2, and
// the golden lists Device.StatesVisited and Sniffer.StatesVisited for
// each run. No fingerprint covers the device's side, so this is what
// keeps a rewrite of the channel bookkeeping honest. The golden records
// today's disagreement on D5, where the sniffer credits
// WAIT_CONFIG_REQ_RSP and the device never visits it; a fix to the
// inferencer re-records it (rerun with -update).
func TestStatesVisitedGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range device.CatalogIDs() {
		for _, seed := range []int64{1, 2} {
			rig, err := New(catalogSpec(t, id), Options{DisableVulns: true})
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{Seed: seed, MaxPackets: 30_000}
			if _, err := core.New(rig.Client, cfg).Run(rig.Device.Address()); err != nil {
				t.Fatalf("%s seed %d: %v", id, seed, err)
			}
			fmt.Fprintf(&b, "%s seed %d\n  device:  %s\n  sniffer: %s\n", id, seed,
				stateNames(rig.Device.StatesVisited()), stateNames(rig.Sniffer.StatesVisited()))
		}
	}
	const path = "testdata/states_visited.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(golden) {
		t.Errorf("visited states drifted from the golden:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

func stateNames(states []sm.State) string {
	names := make([]string, len(states))
	for i, s := range states {
		names[i] = s.String()
	}
	return strings.Join(names, " ")
}
