// The round-trip property the corpus exists for, pinned end to end: a
// farm finding saved to a Store, reloaded from disk and replayed on a
// fresh rig reproduces the same Signature; Minimize returns a trace no
// longer than the recorded one that still reproduces it; and a second
// farm run over the same store reports the finding as Known instead of
// announcing it as new.
package corpus_test

import (
	"reflect"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/corpus"
	"l2fuzz/internal/fleet"
)

// rfcommFarm is a one-job farm whose D5×RFCOMM cell finds the
// reserved-DLCI mux defect within a few frames.
func rfcommFarm(store *corpus.Store) fleet.Config {
	return fleet.Config{
		Devices:          []string{"D5"},
		Kinds:            []fleet.Kind{fleet.KindRFCOMM},
		BaseSeed:         7,
		Workers:          2,
		MaxPacketsPerJob: 20_000,
		Corpus:           store,
	}
}

func TestFarmRoundTripReplayMinimizeKnown(t *testing.T) {
	dir := t.TempDir()
	store, err := corpus.Open(dir)
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
	if rep.Findings[0].Known {
		t.Fatal("first-run finding marked Known against an empty store")
	}
	if rep.Corpus == nil || rep.Corpus.Saved != 1 || rep.Corpus.Known != 0 {
		t.Fatalf("corpus stats = %+v, want 1 saved / 0 known", rep.Corpus)
	}
	sig := rep.Findings[0].Signature

	// Reload through a fresh store handle: the entry must survive the
	// process boundary, not just the in-memory run.
	reopened, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := reopened.GetKey(corpus.KeyOf(sig))
	if err != nil {
		t.Fatal(err)
	}
	if entry.Signature != sig || entry.Kind != string(fleet.KindRFCOMM) {
		t.Fatalf("stored entry = %+v, want signature %v via RFCOMM", entry, sig)
	}
	if !entry.Trace.Replayable() || entry.Trace.Target != "D5" {
		t.Fatalf("stored trace not replayable: %d ops, target %q, truncated %v",
			len(entry.Trace.Ops), entry.Trace.Target, entry.Trace.Truncated)
	}

	// Replay on a fresh rig must reproduce the identical signature.
	res, err := corpus.Replay(entry, corpus.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced || res.Signature != sig {
		t.Fatalf("replay = %+v, want reproduction of %v", res, sig)
	}
	if !res.Crashed || res.Dump == "" {
		t.Errorf("replayed rig: crashed=%v dump=%q, want a crashed device with an artefact", res.Crashed, res.Dump)
	}

	// Minimize must return a still-reproducing trace no longer than the
	// input — and for this defect (one killing SABM frame suffices) a
	// strictly shorter one.
	minimized, err := corpus.Minimize(entry, corpus.MinimizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if minimized.After > minimized.Before {
		t.Fatalf("minimize grew the trace: %d -> %d", minimized.Before, minimized.After)
	}
	if minimized.After >= minimized.Before {
		t.Errorf("minimize did not shrink a %d-op trace with known-removable probe ops", minimized.Before)
	}
	again, err := corpus.Replay(minimized.Entry, corpus.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Reproduced || again.Signature != sig {
		t.Fatalf("minimized trace no longer reproduces: %+v", again)
	}

	// Second farm run over the same corpus: the finding is Known, not
	// announced as new, and not re-saved.
	farm, err := fleet.Start(rfcommFarm(store))
	if err != nil {
		t.Fatal(err)
	}
	for ev := range farm.Events() {
		if ev.Type == fleet.EventNewFinding {
			t.Errorf("second run announced %v as a new finding", ev.Finding.Signature)
		}
	}
	rep2 := farm.Wait()
	if len(rep2.Findings) != 1 || !rep2.Findings[0].Known {
		t.Fatalf("second-run findings = %+v, want the same finding marked Known", rep2.Findings)
	}
	if rep2.Corpus == nil || rep2.Corpus.Saved != 0 || rep2.Corpus.Known != 1 {
		t.Fatalf("second-run corpus stats = %+v, want 0 saved / 1 known", rep2.Corpus)
	}
}

// easyTarget is a custom spec with the catalog's D2 defect widened to
// fire on the first qualifying packet, so the L2Fuzz and Campaign farm
// paths produce corpus entries within a small budget. Its over-the-air
// name differs from its target name.
func easyTarget() device.Spec {
	return device.Spec{
		Name: "easy-phone",
		Config: device.Config{
			Addr: radio.MustBDAddr("02:EE:20:00:00:01"),
			Name: "Easy Phone",
			Profile: device.BlueDroidProfile("5.1",
				"vendor/easy:13/TQ3A/1:user/release-keys",
				device.BlueDroidCCBNullDeref(0x40, 2, true)),
			Ports: []device.ServicePort{
				{PSM: l2cap.PSMSDP, Name: "Service Discovery"},
				{PSM: l2cap.PSMDynamicFirst, Name: "vendor-service"},
			},
		},
		ExpectVuln:  true,
		ExpectClass: device.ClassDoS,
	}
}

// TestL2FuzzAndCampaignEntriesReplay drives the two core.Fuzzer farm
// paths (plain L2Fuzz and the campaign wrapper with its device resets)
// into the corpus and replays their entries from the spec each embeds:
// no spec is passed back in.
func TestL2FuzzAndCampaignEntriesReplay(t *testing.T) {
	for _, kind := range []fleet.Kind{fleet.KindL2Fuzz, fleet.KindCampaign} {
		t.Run(string(kind), func(t *testing.T) {
			store, err := corpus.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			spec := easyTarget()
			rep, err := fleet.Run(fleet.Config{
				Devices:          []string{},
				CustomDevices:    []device.Spec{spec},
				Kinds:            []fleet.Kind{kind},
				BaseSeed:         3,
				Workers:          1,
				MaxPacketsPerJob: 50_000,
				CampaignRuns:     2,
				Corpus:           store,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Findings) == 0 || rep.Corpus.Saved == 0 {
				t.Fatalf("widened target produced no stored finding: findings=%d corpus=%+v",
					len(rep.Findings), rep.Corpus)
			}
			entry, err := store.GetKey(corpus.KeyOf(rep.Findings[0].Signature))
			if err != nil {
				t.Fatal(err)
			}
			if entry.Trace.Seed == 0 || entry.Trace.Target != spec.Name {
				t.Errorf("trace metadata = seed %d target %q, want the job seed against %q",
					entry.Trace.Seed, entry.Trace.Target, spec.Name)
			}

			if entry.TargetSpec == nil || !reflect.DeepEqual(*entry.TargetSpec, spec) {
				t.Fatalf("entry embeds spec %+v, want the farmed %+v", entry.TargetSpec, spec)
			}
			res, err := corpus.Replay(entry, corpus.ReplayConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Reproduced || res.Signature != entry.Signature {
				t.Fatalf("replay = %+v, want reproduction of %v", res, entry.Signature)
			}
			minimized, err := corpus.Minimize(entry, corpus.MinimizeConfig{MaxReplays: 256})
			if err != nil {
				t.Fatal(err)
			}
			if minimized.After > minimized.Before {
				t.Fatalf("minimize grew the trace: %d -> %d", minimized.Before, minimized.After)
			}
			again, err := corpus.Replay(minimized.Entry, corpus.ReplayConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !again.Reproduced {
				t.Fatalf("minimized %s trace no longer reproduces", kind)
			}
		})
	}
}

// TestReplayRefusesUnreplayableTraces pins the error paths: an empty
// trace and a truncated trace are diagnosed, not silently "replayed".
func TestReplayRefusesUnreplayableTraces(t *testing.T) {
	store, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(rfcommFarm(store))
	if err != nil {
		t.Fatal(err)
	}
	entry, err := store.GetKey(corpus.KeyOf(rep.Findings[0].Signature))
	if err != nil {
		t.Fatal(err)
	}
	empty := entry
	empty.Trace.Ops = nil
	if _, err := corpus.Replay(empty, corpus.ReplayConfig{}); err == nil {
		t.Error("empty trace replayed")
	}
	truncated := entry
	truncated.Trace.Truncated = true
	if _, err := corpus.Replay(truncated, corpus.ReplayConfig{}); err == nil {
		t.Error("truncated trace replayed")
	}
	if _, err := corpus.Minimize(empty, corpus.MinimizeConfig{}); err == nil {
		t.Error("empty trace minimized")
	}
}
