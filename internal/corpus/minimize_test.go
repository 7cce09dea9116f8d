// Minimization's parallel probe rounds are an optimisation, not a
// semantics change: the witness is chosen by candidate order, so the
// reduction path — and the final trace — must be identical at every
// worker count.
package corpus_test

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"l2fuzz/internal/corpus"
	"l2fuzz/internal/fleet"
)

func TestMinimizeDeterministicAcrossWorkerCounts(t *testing.T) {
	store, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(rfcommFarm(store))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("farm findings = %+v, want exactly one", rep.Findings)
	}
	entry, err := store.GetKey(corpus.KeyOf(rep.Findings[0].Signature))
	if err != nil {
		t.Fatal(err)
	}

	// Minimize runs GOMAXPROCS probes at a time.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var results []*corpus.MinimizeResult
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		res, err := corpus.Minimize(entry, corpus.MinimizeConfig{})
		if err != nil {
			t.Fatalf("Minimize(workers=%d) error = %v", workers, err)
		}
		results = append(results, res)
	}
	serial, parallel := results[0], results[1]
	if serial.After != parallel.After {
		t.Fatalf("worker counts disagree on trace length: 1 worker → %d ops, 4 workers → %d ops",
			serial.After, parallel.After)
	}
	if len(serial.Entry.Trace.Ops) != len(parallel.Entry.Trace.Ops) {
		t.Fatal("minimized op slices differ in length")
	}
	for i := range serial.Entry.Trace.Ops {
		a, b := serial.Entry.Trace.Ops[i], parallel.Entry.Trace.Ops[i]
		if a.Kind != b.Kind || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("op %d differs between worker counts: %+v vs %+v", i, a, b)
		}
	}
	if serial.Replays != parallel.Replays {
		t.Errorf("replay accounting differs across worker counts: %d vs %d",
			serial.Replays, parallel.Replays)
	}
	// And the agreed-on minimized trace still reproduces.
	again, err := corpus.Replay(parallel.Entry, corpus.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Reproduced || again.Signature != entry.Signature {
		t.Fatalf("minimized trace no longer reproduces: %+v", again)
	}
}

// TestMinimizeConfigReplays pins the settings rule for MaxReplays: zero
// means DefaultMaxReplays, and a negative cap is refused with an error
// naming the field.
func TestMinimizeConfigReplays(t *testing.T) {
	store, err := corpus.Open(filepath.Join("testdata", "regress"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.Entries()
	if err != nil || len(entries) == 0 {
		t.Fatalf("committed corpus: %d entries, err %v", len(entries), err)
	}
	res, err := corpus.Minimize(entries[0], corpus.MinimizeConfig{MaxReplays: 0})
	if err != nil || res.Replays < 1 || res.Replays > corpus.DefaultMaxReplays {
		t.Errorf("MaxReplays 0: %+v, err %v; want a minimization within DefaultMaxReplays", res, err)
	}
	if _, err := corpus.Minimize(entries[0], corpus.MinimizeConfig{MaxReplays: -3}); err == nil || !strings.Contains(err.Error(), "MaxReplays") {
		t.Errorf("MaxReplays -3: error %v, want one naming the field", err)
	}
}
