package device

import (
	"fmt"

	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/rfcomm"
)

// Spec is a first-class fuzzing target: the device identity every layer
// of the system — testbed, fleet, CLI and public API — consumes. It
// decouples "what to fuzz" from the paper's eight-device catalog: a
// target is a name plus a full device configuration, and the catalog is
// just eight predefined Specs (CatalogSpecs). Anything that can be
// expressed as a device.Config — custom port maps, vendor profiles,
// injected defects, RFCOMM services — is a schedulable farm target.
type Spec struct {
	// Name identifies the target. Farm seeds, packet budgets and
	// per-device report sections all key by it, so it must be unique
	// within a farm and must not collide with the catalog IDs. Catalog
	// specs use the paper's "D1".."D8"; the friendly over-the-air name
	// lives in Config.Name.
	Name string
	// Config is the full device configuration the simulation
	// instantiates the target from.
	Config Config
	// ExpectVuln marks targets that carry an injected defect a fuzzer
	// is expected to find. The testbed uses it to arm the RFCOMM mux
	// defect on RFCOMM rigs, and evaluation harnesses use it as ground
	// truth (the paper's Table VI column).
	ExpectVuln bool
	// ExpectClass is the expected observable severity when ExpectVuln
	// is set.
	ExpectClass CrashClass
}

// Validate checks the spec can identify and instantiate a target: a
// non-empty name and a non-zero BD_ADDR.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("device: spec with empty target name")
	}
	if s.Config.Addr == (radio.BDAddr{}) {
		return fmt.Errorf("device: spec %q has no BD_ADDR", s.Name)
	}
	return nil
}

// Clone returns a copy of the spec whose referenced fields — ports,
// RFCOMM services, injected defects — no longer alias the original, so
// holders of the clone are isolated from later caller mutation. Specs
// are pure data (defect triggers are declarative descriptors, not
// closures), so a clone is a complete deep copy.
func (s Spec) Clone() Spec {
	s.Config.Ports = append([]ServicePort(nil), s.Config.Ports...)
	s.Config.RFCOMMServices = append([]rfcomm.Service(nil), s.Config.RFCOMMServices...)
	s.Config.Profile.Vulns = append([]VulnSpec(nil), s.Config.Profile.Vulns...)
	if s.Config.RFCOMMDefect != nil {
		d := *s.Config.RFCOMMDefect
		s.Config.RFCOMMDefect = &d
	}
	if s.Config.SDPDefect != nil {
		d := *s.Config.SDPDefect
		s.Config.SDPDefect = &d
	}
	return s
}

// CatalogSpec returns the Table V device with the given paper ID
// ("D1".."D8") as a target spec.
func CatalogSpec(id string, disableVulns bool) (Spec, error) {
	for _, s := range CatalogSpecs(disableVulns) {
		if s.Name == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("device: no catalog entry %q", id)
}

// catalogIDs are the Table V paper IDs in catalog order. Kept as bare
// strings so ID checks never pay for building the full catalog; a test
// pins them against CatalogSpecs itself.
var catalogIDs = []string{"D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8"}

// CatalogIDs returns the catalog's paper IDs in catalog order.
func CatalogIDs() []string {
	return append([]string(nil), catalogIDs...)
}

// IsCatalogID reports whether name is one of the catalog's paper IDs.
// Custom target specs must not reuse them.
func IsCatalogID(name string) bool {
	for _, id := range catalogIDs {
		if id == name {
			return true
		}
	}
	return false
}
