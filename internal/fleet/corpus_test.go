package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sdp"
	"l2fuzz/internal/core"
	"l2fuzz/internal/corpus"
	"l2fuzz/internal/telemetry"
)

// corpusMatrix is a multi-job matrix in which two cells (the RFCOMM
// shards) contribute the same finding signature, so the canonical-trace
// selection has something to race on.
func corpusMatrix(workers int, store *corpus.Store) Config {
	return Config{
		Devices:          []string{"D5"},
		Kinds:            []Kind{KindL2Fuzz, KindRFCOMM},
		Shards:           2,
		BaseSeed:         7,
		Workers:          workers,
		MaxPacketsPerJob: 20_000,
		Corpus:           store,
	}
}

// TestCorpusFarmSchedulingIndependence extends the farm's determinism
// guarantee to corpus-backed runs: the report (Known flags, corpus
// stats) and the persisted store content must not depend on worker
// scheduling. The report carries no repro trace (the store owns them),
// so the entries comparison is what compares traces byte for byte.
func TestCorpusFarmSchedulingIndependence(t *testing.T) {
	run := func(workers int) (*Report, []corpus.Entry) {
		store, err := corpus.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(corpusMatrix(workers, store))
		if err != nil {
			t.Fatal(err)
		}
		entries, err := store.Entries()
		if err != nil {
			t.Fatal(err)
		}
		return rep, entries
	}
	serialRep, serialEntries := run(1)
	parallelRep, parallelEntries := run(8)

	if len(serialRep.Findings) == 0 {
		t.Fatal("matrix produced no findings; the comparison would be vacuous")
	}
	if serialRep.Corpus == nil || serialRep.Corpus.Saved != len(serialEntries) {
		t.Fatalf("corpus stats %+v disagree with %d stored entries", serialRep.Corpus, len(serialEntries))
	}
	serialRep.ScrubWall()
	parallelRep.ScrubWall()
	serialRep.Workers, parallelRep.Workers = 0, 0
	if !reflect.DeepEqual(serialRep, parallelRep) {
		t.Errorf("corpus-backed reports differ between worker counts:\nserial:   %+v\nparallel: %+v",
			serialRep, parallelRep)
	}
	if !reflect.DeepEqual(serialEntries, parallelEntries) {
		t.Errorf("persisted corpus content differs between worker counts")
	}
	for _, e := range serialEntries {
		if !e.Trace.Replayable() {
			t.Errorf("stored entry %v is not replayable", e.Signature)
		}
		if e.Finding.Trace != nil {
			t.Errorf("stored entry %v duplicates the trace inside the finding", e.Signature)
		}
	}
}

// TestCorpusFarmReplaysLikeLive pins the corpus store as a repro
// trace's only long-lived owner, in process and on worker subprocesses:
// no job result, finding record or event of a store-backed farm carries
// a trace, so its live report equals its journal replay once the
// corpus section, which replay strips by design, is set aside. Every
// stored entry still replays to its own signature.
func TestCorpusFarmReplaysLikeLive(t *testing.T) {
	traced := func(f core.Finding) bool { return f.Trace != nil || f.TraceTruncated }
	for _, tc := range []struct {
		name string
		exec func() *ProcExecutor
	}{
		{"local", func() *ProcExecutor { return nil }},
		{"proc", func() *ProcExecutor { return NewProcExecutor(procConfig(2)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := corpus.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var journal bytes.Buffer
			cfg := corpusMatrix(2, store)
			cfg.Executor = tc.exec()
			cfg.Journal = telemetry.NewJournal(&journal)
			farm, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for ev := range farm.Events() {
				switch ev.Type {
				case EventJobDone:
					for _, occ := range ev.Result.Findings {
						if traced(occ.Finding) {
							t.Errorf("JobDone event of %v carries a trace (%d ops)", ev.Job, len(occ.Finding.Trace))
						}
					}
				case EventNewFinding:
					if traced(ev.Finding.Finding) {
						t.Errorf("NewFinding event of %v carries a trace (%d ops)", ev.Finding.Signature, len(ev.Finding.Finding.Trace))
					}
				}
			}
			live := farm.Wait()
			if err := cfg.Journal.Err(); err != nil {
				t.Fatal(err)
			}
			if len(live.Findings) == 0 || live.Corpus == nil || live.Corpus.Saved == 0 {
				t.Fatalf("farm saved no findings (corpus %+v); the checks would be vacuous", live.Corpus)
			}
			saved := live.Corpus.Saved
			for _, res := range live.Jobs {
				for _, occ := range res.Findings {
					if traced(occ.Finding) {
						t.Errorf("report job %v carries a trace (%d ops)", res.Job, len(occ.Finding.Trace))
					}
				}
			}
			for _, f := range live.Findings {
				if traced(f.Finding) {
					t.Errorf("report finding %v carries a trace (%d ops)", f.Signature, len(f.Finding.Trace))
				}
			}

			replayed, err := ReplayJournal(corpusMatrix(2, nil), bytes.NewReader(journal.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range []*Report{live, replayed} {
				rep.ScrubWall()
				stripWorkers(rep)
			}
			live.Corpus = nil
			if !reflect.DeepEqual(live, replayed) {
				t.Errorf("replayed report differs from the live one:\nlive:     %+v\nreplayed: %+v", live, replayed)
			}

			entries, err := store.Entries()
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != saved {
				t.Errorf("store holds %d entries, the report saved %d", len(entries), saved)
			}
			for _, e := range entries {
				res, err := corpus.Replay(e, corpus.ReplayConfig{})
				if err != nil {
					t.Errorf("entry %v: replay: %v", e.Signature, err)
				} else if !res.Reproduced || res.Signature != e.Signature {
					t.Errorf("entry %v replays to %v (reproduced %v)", e.Signature, res.Signature, res.Reproduced)
				}
			}
		})
	}
}

// TestDeepFindingRecordsCompleteTrace pins that the trace recorder is
// sized from the job's own packet budget: a target whose Budgets entry
// lies far past the matrix budget, and whose finding lands beyond the
// trace limit that matrix budget would give, must still record a
// complete, persistable trace. The target's defect fires only after
// more commands than that limit would hold.
func TestDeepFindingRecordsCompleteTrace(t *testing.T) {
	const fireAfter = 10_000
	spec := device.Spec{
		Name: "slow-burn",
		Config: device.Config{
			Addr: radio.MustBDAddr("02:EE:40:00:00:01"),
			Name: "Slow Burn",
			Profile: device.BlueDroidProfile("5.1", "vendor/slowburn:13/TQ3A/1:user/release-keys",
				device.VulnSpec{
					ID:          "test-slow-burn",
					Description: "fires only deep into the run",
					Class:       device.ClassDoS,
					Dump:        device.DumpTombstone,
					FaultFunc:   "l2c_csm_execute(test)",
					// The command-flood trigger places the crash at a
					// command depth past the pre-resolution trace limit.
					Trigger: device.TriggerSpec{
						Kind:        device.TriggerCommandFlood,
						MinCommands: fireAfter,
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
	rep, err := Run(Config{
		CustomDevices: []device.Spec{spec},
		Budgets:       map[string]int{"slow-burn": 20 * fireAfter},
		BaseSeed:      3,
		Workers:       1,
		// Small matrix budget: a trace limit sized from it cannot hold
		// a finding at fireAfter commands.
		MaxPacketsPerJob: 1_000,
		Corpus:           store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %+v, want the deep finding", rep.Findings)
	}
	if rep.Corpus.Saved != 1 || len(rep.Corpus.Errors) != 0 {
		t.Fatalf("corpus stats = %+v, want the deep finding's trace saved", rep.Corpus)
	}
	entry, err := store.GetKey(corpus.KeyOf(rep.Findings[0].Signature))
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Trace.Replayable() {
		t.Fatalf("stored trace truncated=%v ops=%d, want a complete trace", entry.Trace.Truncated, len(entry.Trace.Ops))
	}
	if len(entry.Trace.Ops) <= traceLimit(1_000) {
		t.Fatalf("trace has %d ops, within the matrix budget's limit %d — the test no longer reaches past it",
			len(entry.Trace.Ops), traceLimit(1_000))
	}
}

// TestCustomTargetEntryIsSelfContained pins that a finding recorded
// against a custom target embeds the target's spec in its corpus entry,
// and that Replay with an empty config — no explicit spec — rebuilds the
// rig from that embedding and reproduces the crash. The targets are one
// defined in JSON and a BlueZ one whose SDP defect is set in its config
// with ExpectVuln false. Catalog-target entries stay spec-less.
func TestCustomTargetEntryIsSelfContained(t *testing.T) {
	fieldUnit, err := device.DecodeSpec([]byte(`{
	  "name": "field-unit",
	  "addr": "02:EE:40:00:00:07",
	  "profile": {"stack": "bluedroid", "btVersion": "5.0"},
	  "ports": [
	    {"psm": 1, "name": "Service Discovery"},
	    {"psm": 3, "name": "RFCOMM"},
	    {"psm": 4097, "name": "vendor-control"}
	  ],
	  "defects": ["ccb-null-deref"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sdpUnit := device.Spec{
		Name: "sdp-unit",
		Config: device.Config{
			Addr:      radio.MustBDAddr("02:EE:40:00:00:08"),
			Name:      "sdp-unit",
			Profile:   device.BlueZProfile("5.0", "bluez-5.64"),
			Ports:     []device.ServicePort{{PSM: l2cap.PSMSDP, Name: "Service Discovery"}},
			SDPDefect: sdp.OverreadDefect(),
		},
	}
	for _, tc := range []struct {
		spec    device.Spec
		devices []string
		kind    Kind
	}{
		{fieldUnit, []string{"D2"}, KindL2Fuzz},
		// Alone: a catalog target's SDP finding would share the
		// signature and, from a lower job index, take the entry.
		{sdpUnit, nil, KindSDP},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			store, err := corpus.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(Config{
				Devices:          tc.devices,
				CustomDevices:    []device.Spec{tc.spec},
				Kinds:            []Kind{tc.kind},
				BaseSeed:         7,
				Workers:          2,
				MaxPacketsPerJob: 20_000,
				Corpus:           store,
			})
			if err != nil {
				t.Fatal(err)
			}
			if g := rep.PerDevice[tc.spec.Name]; g == nil || g.Findings == 0 {
				t.Fatal("custom target produced no findings; the embedding would be unexercised")
			}

			entries, err := store.Entries()
			if err != nil {
				t.Fatal(err)
			}
			var replayedCustom bool
			for _, e := range entries {
				if device.IsCatalogID(e.Trace.Target) {
					if e.TargetSpec != nil {
						t.Errorf("catalog-target entry %v embeds a spec: %+v", e.Signature, e.TargetSpec)
					}
					continue
				}
				if e.TargetSpec == nil {
					t.Fatalf("custom-target entry %v embeds no spec", e.Signature)
				}
				res, err := corpus.Replay(e, corpus.ReplayConfig{})
				if err != nil {
					t.Fatalf("spec-less replay of custom-target entry %v: %v", e.Signature, err)
				}
				if !res.Reproduced {
					t.Errorf("embedded-spec replay of %v did not reproduce: %+v", e.Signature, res)
				}
				replayedCustom = true
			}
			if !replayedCustom {
				t.Fatal("no custom-target entry was persisted")
			}
		})
	}
}

// TestCorpuslessFarmRecordsNoTraces pins the zero-cost default: without
// a store no recorder is attached, findings carry no traces, and the
// report has no corpus section — so pre-corpus reports stay
// byte-identical (the catalog golden test covers the rendering).
func TestCorpuslessFarmRecordsNoTraces(t *testing.T) {
	rep, err := Run(Config{
		Devices:          []string{"D5"},
		Kinds:            []Kind{KindRFCOMM},
		BaseSeed:         7,
		Workers:          2,
		MaxPacketsPerJob: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corpus != nil {
		t.Errorf("store-less farm carries corpus stats: %+v", rep.Corpus)
	}
	for _, f := range rep.Findings {
		if f.Known || f.Finding.Trace != nil {
			t.Errorf("store-less farm finding carries corpus state: %+v", f)
		}
	}
}
