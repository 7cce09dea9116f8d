// The costs of reproducing a long trace, pinned: a stored trace loads
// in a fixed number of allocations however many ops it holds, a replay
// allocates next to nothing per op, and a minimization probe replays its
// candidate in place instead of copying it.
package corpus_test

import (
	"runtime"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/corpus"
	"l2fuzz/internal/fleet"
)

// floodEntry farms a one-target store whose only finding is a
// command-flood crash that fires after minCommands signaling commands,
// and returns the store and the finding's key. Its trace holds a little
// over minCommands ops, nearly all of them sends.
func floodEntry(t *testing.T, minCommands int) (*corpus.Store, string) {
	t.Helper()
	spec := device.Spec{
		Name: "flood",
		Config: device.Config{
			Addr: radio.MustBDAddr("02:EE:40:00:00:02"),
			Name: "Flood",
			Profile: device.BlueDroidProfile("5.1", "vendor/flood:13/TQ3A/1:user/release-keys",
				device.VulnSpec{
					ID:          "test-flood",
					Description: "fires after a long command flood",
					Class:       device.ClassDoS,
					Dump:        device.DumpTombstone,
					FaultFunc:   "l2c_csm_execute(test)",
					Trigger: device.TriggerSpec{
						Kind:        device.TriggerCommandFlood,
						MinCommands: minCommands,
					},
				}),
			Ports: []device.ServicePort{
				{PSM: l2cap.PSMSDP, Name: "Service Discovery"},
				{PSM: l2cap.PSMDynamicFirst, Name: "vendor-service"},
			},
		},
		ExpectVuln:  true,
		ExpectClass: device.ClassDoS,
	}
	store, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(fleet.Config{
		CustomDevices:    []device.Spec{spec},
		BaseSeed:         3,
		Workers:          1,
		MaxPacketsPerJob: 20 * minCommands,
		Corpus:           store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Corpus.Saved != 1 {
		t.Fatalf("findings %+v, corpus %+v: want one saved flood finding", rep.Findings, rep.Corpus)
	}
	return store, corpus.KeyOf(rep.Findings[0].Signature)
}

// allocated returns the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLongTraceLoadsAndReplaysCheaply pins the load and the replay of a
// trace of at least 10,000 ops: after a warm-up load, GetKey makes at
// most 64 mallocs in all (json.Unmarshal into []Op made two per op), its
// send data are capacity-clipped, and Replay allocates under 8 bytes
// per op (a rig with a sniffer appends two figure-series points per
// packet).
func TestLongTraceLoadsAndReplaysCheaply(t *testing.T) {
	store, key := floodEntry(t, 10_000)
	var e corpus.Entry
	mallocs := testing.AllocsPerRun(3, func() {
		var err error
		if e, err = store.GetKey(key); err != nil {
			t.Fatal(err)
		}
	})
	ops := len(e.Trace.Ops)
	if ops < 10_000 {
		t.Fatalf("flood trace holds %d ops, want at least 10,000", ops)
	}
	t.Logf("GetKey of a %d-op entry: %.0f mallocs", ops, mallocs)
	if mallocs > 64 {
		t.Errorf("GetKey of a %d-op entry made %.0f mallocs, want at most 64", ops, mallocs)
	}
	for i, op := range e.Trace.Ops {
		if cap(op.Data) != len(op.Data) {
			t.Errorf("op %d: data cap %d > len %d, so an append would overwrite the next op's bytes", i, cap(op.Data), len(op.Data))
			break
		}
	}

	var res *corpus.ReplayResult
	bytes := allocated(func() {
		var err error
		if res, err = corpus.Replay(e, corpus.ReplayConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	if !res.Reproduced {
		t.Fatalf("flood entry replays to %v, want %v", res.Signature, e.Signature)
	}
	perOp := float64(bytes) / float64(ops)
	t.Logf("Replay of a %d-op entry: %d B, %.2f B per op", ops, bytes, perOp)
	if perOp >= 8 {
		t.Errorf("Replay of a %d-op entry allocated %d B, %.1f B per op, want under 8", ops, bytes, perOp)
	}
}

// TestMinimizeCopiesOnlyTheWitness pins a minimization round's memory:
// its probes replay the current trace in place, skipping the chunk each
// candidate drops, so minimizing a flood trace of at least 2,000 ops
// allocates under 64 KB per replay. Copying every candidate of a round
// cost about 300 KB per replay at this length, and grows with it.
func TestMinimizeCopiesOnlyTheWitness(t *testing.T) {
	store, key := floodEntry(t, 2_000)
	e, err := store.GetKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Trace.Ops) < 2_000 {
		t.Fatalf("flood trace holds %d ops, want at least 2,000", len(e.Trace.Ops))
	}
	var res *corpus.MinimizeResult
	bytes := allocated(func() {
		if res, err = corpus.Minimize(e, corpus.MinimizeConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	if res.After >= res.Before {
		t.Errorf("minimization kept %d of %d ops, want fewer", res.After, res.Before)
	}
	perReplay := bytes / uint64(res.Replays)
	t.Logf("minimizing %d → %d ops: %d B over %d replays, %d B per replay", res.Before, res.After, bytes, res.Replays, perReplay)
	if perReplay >= 64<<10 {
		t.Errorf("minimizing %d → %d ops allocated %d B over %d replays, %d B per replay, want under 64 KB",
			res.Before, res.After, bytes, res.Replays, perReplay)
	}
}
