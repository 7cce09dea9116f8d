package device

import (
	"strings"
	"testing"

	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
)

// TestCatalogSpecsAreByteCompatibleViews pins the catalog's target
// specs, the one view of the Table V devices every layer reads: each
// validates under its paper ID, an unknown ID is refused, and
// disableVulns builds measurement-grade specs.
func TestCatalogSpecsAreByteCompatibleViews(t *testing.T) {
	for _, s := range CatalogSpecs(false) {
		if err := s.Validate(); err != nil {
			t.Errorf("catalog spec %s does not validate: %v", s.Name, err)
		}
		if !IsCatalogID(s.Name) {
			t.Errorf("IsCatalogID(%q) = false", s.Name)
		}
	}
	if _, err := CatalogSpec("D9", false); err == nil {
		t.Error("CatalogSpec(D9) should fail")
	}
	if spec, err := CatalogSpec("D2", true); err != nil || !spec.Config.DisableVulns {
		t.Errorf("CatalogSpec(D2, true) = %+v, %v; want a measurement-grade spec", spec, err)
	}
	if IsCatalogID("smart-toaster") {
		t.Error("IsCatalogID accepted a non-catalog name")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err == nil {
		t.Error("empty spec validates")
	}
	if err := (Spec{Name: "x"}).Validate(); err == nil {
		t.Error("spec without address validates")
	}
	ok := Spec{Name: "x", Config: Config{Addr: radio.MustBDAddr("02:00:00:00:00:01")}}
	if err := ok.Validate(); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
}

const validSpecJSON = `{
  "name": "smart-speaker",
  "addr": "D0:03:DF:12:34:56",
  "classOfDevice": 2360324,
  "profile": {"stack": "bluedroid", "btVersion": "5.2", "fingerprint": "vendor/speaker:12"},
  "ports": [
    {"psm": 1, "name": "Service Discovery"},
    {"psm": 3, "name": "RFCOMM", "requiresPairing": true},
    {"psm": 4097, "name": "vendor-control"}
  ],
  "defects": ["ccb-null-deref"],
  "rfcomm": {"services": [{"channel": 1, "name": "Serial Port Profile"}], "defect": true},
  "expectClass": "DoS"
}`

func TestDecodeSpec(t *testing.T) {
	spec, err := DecodeSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "smart-speaker" {
		t.Errorf("name = %q", spec.Name)
	}
	if spec.Config.Addr != radio.MustBDAddr("D0:03:DF:12:34:56") {
		t.Errorf("addr = %v", spec.Config.Addr)
	}
	if spec.Config.Profile.Stack != "BlueDroid" {
		t.Errorf("stack = %q", spec.Config.Profile.Stack)
	}
	if len(spec.Config.Profile.Vulns) != 1 || spec.Config.Profile.Vulns[0].ID != "bluedroid-ccb-null-deref" {
		t.Errorf("defects not armed: %+v", spec.Config.Profile.Vulns)
	}
	if len(spec.Config.Ports) != 3 || spec.Config.Ports[2].PSM != l2cap.PSM(4097) {
		t.Errorf("ports not decoded: %+v", spec.Config.Ports)
	}
	if len(spec.Config.RFCOMMServices) != 1 || spec.Config.RFCOMMDefect == nil {
		t.Error("rfcomm services/defect not decoded")
	}
	if !spec.ExpectVuln || spec.ExpectClass != ClassDoS {
		t.Errorf("expectation = %v/%v, want armed DoS", spec.ExpectVuln, spec.ExpectClass)
	}

	// The decoded spec instantiates: run it through a real medium.
	m := radio.NewMedium(nil, radio.DefaultTiming())
	if _, err := New(m, spec.Config); err != nil {
		t.Fatalf("decoded spec does not instantiate: %v", err)
	}
}

// TestDecodeSpecDefaults pins the derivation rules: expectVuln follows
// the armed defects unless stated, and expectClass takes the first
// defect's class.
func TestDecodeSpecDefaults(t *testing.T) {
	quiet, err := DecodeSpec([]byte(`{
	  "name": "quiet", "addr": "02:00:00:00:00:02",
	  "profile": {"stack": "windows", "btVersion": "5.0"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if quiet.ExpectVuln || quiet.ExpectClass != 0 {
		t.Errorf("defect-free spec expects a vuln: %+v", quiet)
	}

	crash, err := DecodeSpec([]byte(`{
	  "name": "crashy", "addr": "02:00:00:00:00:03",
	  "profile": {"stack": "rtkit", "btVersion": "4.2"},
	  "defects": ["psm-service-kill"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !crash.ExpectVuln || crash.ExpectClass != ClassCrash {
		t.Errorf("defect-armed spec expectation = %v/%v, want Crash", crash.ExpectVuln, crash.ExpectClass)
	}

	denied, err := DecodeSpec([]byte(`{
	  "name": "denied", "addr": "02:00:00:00:00:04",
	  "profile": {"stack": "bluez", "btVersion": "5.0"},
	  "defects": ["option-overrun-gpf"],
	  "expectVuln": false
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if denied.ExpectVuln {
		t.Error("explicit expectVuln:false overridden by armed defects")
	}
}

func TestDecodeSpecErrors(t *testing.T) {
	for _, tc := range []struct {
		name, json, want string
	}{
		{"syntax error carries line", "{\n  \"name\": \"x\",\n  bogus\n}", "line 3"},
		{"type mismatch carries line", "{\n  \"name\": 7\n}", "line 2"},
		{"unknown field", `{"name": "x", "addr": "02:00:00:00:00:01", "profile": {"stack": "btw"}, "color": "red"}`, "color"},
		{"missing name", `{"addr": "02:00:00:00:00:01", "profile": {"stack": "btw"}}`, "name"},
		{"missing addr", `{"name": "x", "profile": {"stack": "btw"}}`, "addr"},
		{"bad addr", `{"name": "x", "addr": "zz", "profile": {"stack": "btw"}}`, "addr"},
		{"unknown stack", `{"name": "x", "addr": "02:00:00:00:00:01", "profile": {"stack": "symbian"}}`, "symbian"},
		{"unknown defect", `{"name": "x", "addr": "02:00:00:00:00:01", "profile": {"stack": "btw"}, "defects": ["heartbleed"]}`, "heartbleed"},
		{"unknown class", `{"name": "x", "addr": "02:00:00:00:00:01", "profile": {"stack": "btw"}, "expectClass": "meltdown"}`, "expectClass"},
		{"rfcomm defect without services", `{"name": "x", "addr": "02:00:00:00:00:01", "profile": {"stack": "btw"}, "rfcomm": {"defect": true}}`, "rfcomm"},
		{"trailing data", `{"name": "x", "addr": "02:00:00:00:00:01", "profile": {"stack": "btw"}} {"again": true}`, "trailing"},
	} {
		_, err := DecodeSpec([]byte(tc.json))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCatalogIDsMatchCatalog pins the bare ID list against the catalog
// itself, so the cheap ID checks cannot drift from the specs.
func TestCatalogIDsMatchCatalog(t *testing.T) {
	ids := CatalogIDs()
	specs := CatalogSpecs(true)
	if len(ids) != len(specs) {
		t.Fatalf("CatalogIDs has %d entries, catalog %d", len(ids), len(specs))
	}
	for i, s := range specs {
		if ids[i] != s.Name {
			t.Errorf("CatalogIDs[%d] = %q, catalog order has %q", i, ids[i], s.Name)
		}
	}
}

// TestSpecCloneIsolatesSlices pins the aliasing contract: mutating the
// original spec's slice-backed fields must not reach a clone.
func TestSpecCloneIsolatesSlices(t *testing.T) {
	orig, err := DecodeSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	clone := orig.Clone()
	orig.Config.Ports[0].RequiresPairing = true
	orig.Config.RFCOMMServices[0].Channel = 99
	orig.Config.Profile.Vulns[0].ID = "mutated"
	if clone.Config.Ports[0].RequiresPairing {
		t.Error("clone shares the port list")
	}
	if clone.Config.RFCOMMServices[0].Channel == 99 {
		t.Error("clone shares the RFCOMM service list")
	}
	if clone.Config.Profile.Vulns[0].ID == "mutated" {
		t.Error("clone shares the defect list")
	}
}
