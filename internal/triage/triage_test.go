package triage

import (
	"strings"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sm"
	"l2fuzz/internal/core"
)

// findingFor runs L2Fuzz against a catalog device and returns the
// finding plus the device-side dump.
func findingFor(t *testing.T, deviceID string, seed int64) (core.Finding, *device.CrashDump) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	spec, err := device.CatalogSpec(deviceID, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:06"), "triage")
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.New(cl, core.Config{Seed: seed}).Run(d.Address())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Found {
		t.Fatalf("no finding on %s", deviceID)
	}
	return report.Finding, d.CrashDump()
}

func TestAnalyzeAndroidTombstone(t *testing.T) {
	finding, dump := findingFor(t, "D2", 1)
	r := Analyze(finding, dump)
	if r.Category != CategoryNullDeref {
		t.Errorf("category = %v, want null deref", r.Category)
	}
	if r.Layer != LayerL2CAP {
		t.Errorf("layer = %v, want L2CAP", r.Layer)
	}
	if r.Confidence != "high" {
		t.Errorf("confidence = %q, want high", r.Confidence)
	}
	if r.StateJob != sm.JobConfiguration {
		t.Errorf("job = %v, want Configuration", r.StateJob)
	}
	text := r.Render()
	for _, want := range []string{"CWE-476", "l2c_csm_execute", "garbage tail"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestAnalyzeBlueZGPFault(t *testing.T) {
	finding, dump := findingFor(t, "D8", 11)
	r := Analyze(finding, dump)
	if r.Category != CategoryMemoryCorruption {
		t.Errorf("category = %v, want memory corruption", r.Category)
	}
	if r.Layer != LayerL2CAP {
		t.Errorf("layer = %v, want L2CAP (l2cap_parse_conf_req)", r.Layer)
	}
}

func TestAnalyzeFirmwareDeathWithoutArtefact(t *testing.T) {
	finding, dump := findingFor(t, "D5", 2)
	if dump != nil {
		// D5's artefact records DumpNone; Analyze must also cope with a
		// literally missing dump, which is what the black-box side sees.
		r := Analyze(finding, dump)
		if r.Category != CategoryUnvalidatedInput {
			t.Errorf("category with DumpNone artefact = %v", r.Category)
		}
	}
	r := Analyze(finding, nil)
	if r.Layer != LayerFirmware {
		t.Errorf("layer = %v, want firmware for a vanished device", r.Layer)
	}
	if r.Confidence != "low" {
		t.Errorf("confidence = %q, want low without an artefact", r.Confidence)
	}
	if !strings.Contains(r.Render(), "abnormal PSM") {
		t.Errorf("trigger shape missing the PSM attack:\n%s", r.Render())
	}
}

func TestAnalyzeRFCOMMDump(t *testing.T) {
	dump := &device.CrashDump{
		Kind:      device.DumpTombstone,
		FaultFunc: "rfc_mx_sm_execute(t_rfc_mcb*, unsigned short, void*)+1024",
	}
	r := Analyze(core.Finding{Error: core.ErrConnectionFailed, State: sm.StateOpen}, dump)
	if r.Layer != LayerRFCOMM {
		t.Errorf("layer = %v, want RFCOMM", r.Layer)
	}
}

func TestDescribeTriggerWithoutMutation(t *testing.T) {
	r := Analyze(core.Finding{
		Error: core.ErrTimeout,
		State: sm.StateClosed,
		PSM:   l2cap.PSMSDP,
	}, nil)
	if !strings.Contains(r.TriggerShape, "no mutation recorded") {
		t.Errorf("TriggerShape = %q", r.TriggerShape)
	}
}
