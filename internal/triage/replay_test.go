// Triage driven from the corpus, end to end: a farm finding's recorded
// trace is minimized, the minimal witness is replayed on a fresh rig,
// and the freshly reproduced device dump — not the original run's —
// feeds the root-cause analysis. Two defect categories are pinned: a
// null-CCB dereference (Android tombstone) and a configuration-option
// overrun (general protection fault).
package triage_test

import (
	"strings"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sm"
	"l2fuzz/internal/corpus"
	"l2fuzz/internal/fleet"
	"l2fuzz/internal/triage"
)

// gpfOverrun is a widened stand-in for the catalog's D8 defect: any
// Configuration Request to an unallocated endpoint with a garbage tail
// dies in option parsing with a general protection fault.
func gpfOverrun() device.VulnSpec {
	return device.VulnSpec{
		ID:          "test-option-overrun-gpf",
		Description: "general protection fault in configuration option parsing (Crash)",
		Class:       device.ClassCrash,
		Dump:        device.DumpGPFault,
		FaultFunc:   "l2cap_parse_conf_req+0x1f4/0x5a0 [bluetooth]",
		Trigger: device.TriggerSpec{
			Kind:     device.TriggerOptionOverrunGPF,
			MinTail:  1,
			MatchAll: true,
		},
	}
}

// replayedRootCause runs one single-job farm against the spec with a
// corpus store, minimizes the stored trace, replays the minimal witness
// and returns its root-cause report.
func replayedRootCause(t *testing.T, spec device.Spec) triage.Report {
	t.Helper()
	store, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(fleet.Config{
		CustomDevices:    []device.Spec{spec},
		BaseSeed:         3,
		Workers:          1,
		MaxPacketsPerJob: 50_000,
		Corpus:           store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 || rep.Corpus.Saved == 0 {
		t.Fatalf("farm stored no finding: findings=%d corpus=%+v", len(rep.Findings), rep.Corpus)
	}
	entry, err := store.GetKey(corpus.KeyOf(rep.Findings[0].Signature))
	if err != nil {
		t.Fatal(err)
	}
	minimized, err := corpus.Minimize(entry, corpus.MinimizeConfig{
		ReplayConfig: corpus.ReplayConfig{Spec: &spec},
		MaxReplays:   256,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := corpus.Replay(minimized.Entry, corpus.ReplayConfig{Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Fatalf("minimized trace does not reproduce %v", entry.Signature)
	}
	if res.Dump == "" {
		t.Fatal("replayed device left no crash artefact to triage")
	}
	return res.RootCause
}

func testSpec(name, mac string, profile device.Profile) device.Spec {
	return device.Spec{
		Name: name,
		Config: device.Config{
			Addr:    radio.MustBDAddr(mac),
			Name:    name,
			Profile: profile,
			Ports: []device.ServicePort{
				{PSM: l2cap.PSMSDP, Name: "Service Discovery"},
				{PSM: l2cap.PSMDynamicFirst, Name: "vendor-service"},
			},
		},
		ExpectVuln: true,
	}
}

func TestReplayedCorpusEntryTriagesNullDeref(t *testing.T) {
	spec := testSpec("triage-null", "02:EE:30:00:00:01",
		device.BlueDroidProfile("5.1", "vendor/triage:13/TQ3A/1:user/release-keys",
			device.BlueDroidCCBNullDeref(0x40, 2, true)))
	rc := replayedRootCause(t, spec)
	if rc.Category != triage.CategoryNullDeref {
		t.Errorf("category = %v, want null pointer dereference", rc.Category)
	}
	if rc.Layer != triage.LayerL2CAP {
		t.Errorf("layer = %v, want L2CAP", rc.Layer)
	}
	if rc.Confidence != "high" {
		t.Errorf("confidence = %q with a device-side artefact, want high", rc.Confidence)
	}
	if !strings.Contains(rc.FaultFunction, "l2c_csm_execute") {
		t.Errorf("fault function %q does not name the tombstone frame", rc.FaultFunction)
	}
	if rc.StateJob != sm.JobConfiguration {
		t.Errorf("state job = %v, want the configuration job", rc.StateJob)
	}
}

func TestReplayedCorpusEntryTriagesMemoryCorruption(t *testing.T) {
	spec := testSpec("triage-gpf", "02:EE:30:00:00:02",
		device.BlueZProfile("5.0", "bluez-test linux-test", gpfOverrun()))
	rc := replayedRootCause(t, spec)
	if rc.Category != triage.CategoryMemoryCorruption {
		t.Errorf("category = %v, want memory corruption", rc.Category)
	}
	if rc.Layer != triage.LayerL2CAP {
		t.Errorf("layer = %v, want L2CAP", rc.Layer)
	}
	if rc.Confidence != "high" {
		t.Errorf("confidence = %q with a device-side artefact, want high", rc.Confidence)
	}
	if !strings.Contains(rc.FaultFunction, "l2cap_parse_conf_req") {
		t.Errorf("fault function %q does not name the faulting parser", rc.FaultFunction)
	}
}
