package fleet

import (
	"testing"

	"l2fuzz/internal/bt/device"
)

// TestEngineRegistryResolvesEveryKind pins the registry contract: every
// kind the matrix can schedule resolves to exactly one engine, and the
// table order — which fixes report order — opens with the six
// historical kinds so reports over the original kind set render as they
// always did.
func TestEngineRegistryResolvesEveryKind(t *testing.T) {
	kinds := AllKinds()
	if len(kinds) != 8 {
		t.Fatalf("registry holds %d kinds, want 8: %v", len(kinds), kinds)
	}
	historical := []Kind{KindL2Fuzz, KindDefensics, KindBFuzz, KindBSS, KindRFCOMM, KindCampaign}
	for i, want := range historical {
		if kinds[i] != want {
			t.Fatalf("kind order[%d] = %v, want %v (report order must keep the historical prefix)", i, kinds[i], want)
		}
	}
	seen := make(map[Kind]bool)
	for _, k := range kinds {
		if seen[k] {
			t.Fatalf("kind %v listed twice", k)
		}
		seen[k] = true
		eng, ok := EngineFor(k)
		if !ok {
			t.Fatalf("EngineFor(%v) resolves nothing", k)
		}
		if eng.Kind() != k {
			t.Fatalf("EngineFor(%v) returned engine for %v", k, eng.Kind())
		}
	}
	if !seen[KindSDP] || !seen[KindSM] {
		t.Fatalf("scenario-diversity kinds missing from the registry: %v", kinds)
	}
}

// TestEngineRegistrySmokeFarmAllKinds is the registry-completeness
// acceptance criterion: a one-shard smoke farm of every registered kind
// against a fully defect-armed target completes with a well-formed
// JobResult per kind, and every engine with a detection phase surfaces
// at least one finding. A kind wired into the registry but not into the
// farm loop — or an engine whose detection never fires on an armed
// target — fails here, not in production.
func TestEngineRegistrySmokeFarmAllKinds(t *testing.T) {
	// customTarget arms the widened (match-all) BlueDroid configuration
	// defect; the testbed arms the SDP overread and — for RFCOMM rigs —
	// the reserved-DLCI defect on every ExpectVuln spec.
	for _, kind := range AllKinds() {
		t.Run(string(kind), func(t *testing.T) {
			eng, ok := EngineFor(kind)
			if !ok {
				t.Fatalf("no engine for %v", kind)
			}
			rep, err := Run(Config{
				CustomDevices:    []device.Spec{customTarget()},
				Kinds:            []Kind{kind},
				BaseSeed:         11,
				Workers:          1,
				MaxPacketsPerJob: 20_000,
				CampaignRuns:     2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Jobs) != 1 {
				t.Fatalf("smoke farm ran %d jobs, want 1", len(rep.Jobs))
			}
			res := rep.Jobs[0]
			if res.Err != nil {
				t.Fatalf("job failed: %v", res.Err)
			}
			if res.Job.Kind != kind {
				t.Fatalf("job kind = %v, want %v", res.Job.Kind, kind)
			}
			if res.PacketsSent == 0 || res.Elapsed == 0 {
				t.Fatalf("job result not filled in: packets=%d elapsed=%v", res.PacketsSent, res.Elapsed)
			}
			if eng.ProducesFindings() {
				if len(rep.Findings) == 0 {
					t.Fatalf("%v produced no finding against a fully armed target", kind)
				}
				for _, occ := range res.Findings {
					if occ.Count <= 0 {
						t.Errorf("occurrence with non-positive count: %+v", occ)
					}
					if occ.Finding.Error == 0 {
						t.Errorf("finding carries no error class: %+v", occ.Finding)
					}
				}
			} else if len(rep.Findings) != 0 {
				t.Fatalf("baseline %v reported findings: %+v", kind, rep.Findings)
			}
		})
	}
}
