package fleet

import (
	"fmt"
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

// Variant is one point on the matrix's variant axis: a name plus the
// design choices its L2Fuzz and campaign jobs switch off. Every other
// kind has no design choice to ablate, so a variant distinguishes their
// jobs through its variant-salted seed alone. A Variant is plain data:
// proc workers receive the matrix's variants once per session and
// resolve each job's variant from that list, exactly as the in-process
// pool does, so any combination of ablations runs under either
// executor.
type Variant struct {
	// Name identifies the variant in jobs, reports and seed derivation.
	// It must be unique within a matrix and non-empty, and a predefined
	// name must carry its predefined Ablation.
	Name string `json:"name"`
	// Ablation is applied to the core.Config of KindL2Fuzz jobs and of
	// every run inside KindCampaign jobs.
	Ablation core.Ablation `json:"ablation"`
}

// BaselineVariant returns the un-ablated reference variant.
func BaselineVariant() Variant { return Variant{Name: VariantBaseline} }

// NoStateGuidingVariant returns the state-guiding ablation: state
// coverage collapses while mutation efficiency survives (§IV-D).
func NoStateGuidingVariant() Variant {
	return Variant{Name: VariantNoStateGuiding, Ablation: core.Ablation{NoStateGuiding: true}}
}

// AllFieldsVariant returns the core-field-mutation ablation: packets
// become invalid rather than valid-malformed and the MP ratio collapses.
func AllFieldsVariant() Variant {
	return Variant{Name: VariantAllFields, Ablation: core.Ablation{MutateAllFields: true}}
}

// NoGarbageVariant returns the garbage-tail ablation: the malformed
// ratio drops and tail-triggered defects go undetected.
func NoGarbageVariant() Variant {
	return Variant{Name: VariantNoGarbage, Ablation: core.Ablation{NoGarbage: true}}
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

// checkPredefined rejects a variant that reuses a predefined variant's
// name with another ablation: reports, journals and the CLI's
// -ablations flag all take a predefined name to mean its ablation.
func (v Variant) checkPredefined() error {
	if pv, err := VariantByName(v.Name); err == nil && v != pv {
		return fmt.Errorf("fleet: variant %q ablates otherwise than the predefined variant of that name; rename it", v.Name)
	}
	return nil
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
