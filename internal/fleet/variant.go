package fleet

import (
	"fmt"
	"reflect"
	"strings"

	"l2fuzz/internal/core"
)

// Names of the predefined variants: the paper's §IV-D ablation grid.
const (
	// VariantBaseline is the un-ablated reference configuration. It is
	// also the implicit variant of a Config with no Variants set, and its
	// jobs keep the pre-variant seed derivation, so variant-free farms
	// reproduce historical reports byte-for-byte.
	VariantBaseline = "baseline"
	// VariantNoStateGuiding disables job-valid command selection:
	// commands are drawn uniformly from all 26 codes in every state.
	VariantNoStateGuiding = "no-state-guiding"
	// VariantAllFields widens mutation beyond the core fields: dependent
	// and MA fields are scrambled too (the dumb-mutation strategy the
	// paper argues against).
	VariantAllFields = "all-fields"
	// VariantNoGarbage suppresses the appended garbage tail.
	VariantNoGarbage = "no-garbage"
)

// Variant is one point on the matrix's variant axis: a named override
// of the L2Fuzz configuration. Its Core hook runs after the farm has
// resolved a job's seed and packet budget, so it may adjust the budget
// too. Only L2Fuzz and campaign jobs run the hook; every other kind
// exposes no knobs, so a variant distinguishes their jobs through its
// variant-salted seed alone.
//
// Proc workers resolve a variant by name (VariantByName), so a variant
// named like a predefined one must change core.Config exactly as that
// one does, and a hook-carrying variant must use a predefined name
// under a ProcExecutor.
type Variant struct {
	// Name identifies the variant in jobs, reports and seed derivation.
	// It must be unique within a matrix and non-empty.
	Name string
	// Core, when set, mutates the resolved core.Config of KindL2Fuzz
	// jobs and of every run inside KindCampaign jobs.
	Core func(*core.Config)
}

// BaselineVariant returns the un-ablated reference variant.
func BaselineVariant() Variant { return Variant{Name: VariantBaseline} }

// NoStateGuidingVariant returns the state-guiding ablation: state
// coverage collapses while mutation efficiency survives (§IV-D).
func NoStateGuidingVariant() Variant {
	return Variant{
		Name: VariantNoStateGuiding,
		Core: func(c *core.Config) { c.NoStateGuiding = true },
	}
}

// AllFieldsVariant returns the core-field-mutation ablation: packets
// become invalid rather than valid-malformed and the MP ratio collapses.
func AllFieldsVariant() Variant {
	return Variant{
		Name: VariantAllFields,
		Core: func(c *core.Config) { c.MutateAllFields = true },
	}
}

// NoGarbageVariant returns the garbage-tail ablation: the malformed
// ratio drops and tail-triggered defects go undetected.
func NoGarbageVariant() Variant {
	return Variant{
		Name: VariantNoGarbage,
		Core: func(c *core.Config) { c.NoGarbage = true },
	}
}

// AblationVariants returns the §IV-D ablation grid in report order: the
// baseline followed by the three single-choice ablations. A farm over
// these variants reproduces the paper's design-argument table from one
// Report.
func AblationVariants() []Variant {
	return []Variant{
		BaselineVariant(),
		NoStateGuidingVariant(),
		AllFieldsVariant(),
		NoGarbageVariant(),
	}
}

// apply returns the core.DefaultConfig the variant's hook leaves.
func (v Variant) apply() core.Config {
	c := core.DefaultConfig(0)
	if v.Core != nil {
		v.Core(&c)
	}
	return c
}

// checkPredefined rejects a variant that reuses a predefined variant's
// name but changes core.Config differently: workers resolve variants by
// name, so the two executors would run different configurations.
func (v Variant) checkPredefined() error {
	pv, err := VariantByName(v.Name)
	if err != nil || reflect.DeepEqual(v.apply(), pv.apply()) {
		return nil
	}
	return fmt.Errorf("fleet: variant %q changes core.Config unlike the predefined variant of that name; rename it", v.Name)
}

// VariantByName resolves one of the predefined ablation variants.
func VariantByName(name string) (Variant, error) {
	var known []string
	for _, v := range AblationVariants() {
		if v.Name == name {
			return v, nil
		}
		known = append(known, v.Name)
	}
	return Variant{}, fmt.Errorf("fleet: unknown variant %q (have %s)", name, strings.Join(known, ", "))
}
