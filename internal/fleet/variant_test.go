package fleet

import (
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"l2fuzz/internal/core"
	"l2fuzz/internal/telemetry"
)

// legacySeed is the pre-variant seed derivation, reproduced here so the
// backwards-compatibility pin cannot drift with the implementation.
func legacySeed(base int64, deviceID string, kind Kind, shard int) int64 {
	h := fnv.New64a()
	h.Write([]byte(deviceID))
	h.Write([]byte{0})
	h.Write([]byte(kind))
	mixed := base
	mixed ^= int64(h.Sum64() & 0x7FFF_FFFF_FFFF_FFFF)
	mixed += int64(shard) * 0x5DEECE66D
	return mixed & math.MaxInt64
}

// TestEmptyVariantsMatchExplicitBaseline pins backwards compatibility:
// a config with no variant axis means [baseline], and both must produce
// byte-identical reports whose jobs keep the pre-variant seed
// derivation and whose rendering carries no variant table — exactly
// what pre-variant farms produced.
func TestEmptyVariantsMatchExplicitBaseline(t *testing.T) {
	base := Config{
		Devices:          []string{"D2", "D4"},
		Kinds:            []Kind{KindL2Fuzz, KindBSS},
		Shards:           2,
		BaseSeed:         7,
		Workers:          4,
		MaxPacketsPerJob: 20_000,
	}
	implicit, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	explicit := base
	explicit.Variants = []Variant{BaselineVariant()}
	pinned, err := Run(explicit)
	if err != nil {
		t.Fatal(err)
	}

	implicit.ScrubWall()
	pinned.ScrubWall()
	if !reflect.DeepEqual(implicit, pinned) {
		t.Error("empty-variant report differs from explicit-baseline report")
	}
	ri, rp := implicit.Render(), pinned.Render()
	if ri != rp {
		t.Errorf("renderings differ:\nimplicit:\n%s\nexplicit:\n%s", ri, rp)
	}
	if strings.Contains(ri, "Per variant") {
		t.Error("baseline-only farm rendering grew a variant table; pre-variant reports had none")
	}
	for _, res := range implicit.Jobs {
		if res.Job.Variant != VariantBaseline {
			t.Errorf("job %v not attributed to the baseline variant", res.Job)
		}
		if want := legacySeed(7, res.Job.Device, res.Job.Kind, res.Job.Shard); res.Job.Seed != want {
			t.Errorf("job %v seed %d differs from the pre-variant derivation %d",
				res.Job, res.Job.Seed, want)
		}
		if got, want := res.Job.String(), res.Job.Device+"×"+string(res.Job.Kind); !strings.HasPrefix(got, want+"/") {
			t.Errorf("baseline job renders as %q, want the pre-variant %q form", got, want+"/<shard>")
		}
	}
}

// TestVariantSaltedSeeds pins the variant axis of the seed derivation:
// non-baseline variants produce distinct streams per cell, while the
// baseline keeps the unsalted seed.
func TestVariantSaltedSeeds(t *testing.T) {
	cfg, err := Config{BaseSeed: 99, Variants: AblationVariants()}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	jobs := buildJobs(cfg)
	if want := 8 * 1 * len(AblationVariants()) * 1; len(jobs) != want {
		t.Fatalf("matrix has %d jobs, want %d", len(jobs), want)
	}
	seeds := make(map[int64]Job)
	for _, j := range jobs {
		if prev, dup := seeds[j.Seed]; dup {
			t.Errorf("jobs %v and %v share seed %d", prev, j, j.Seed)
		}
		seeds[j.Seed] = j
		legacy := legacySeed(99, j.Device, j.Kind, j.Shard)
		if j.Variant == VariantBaseline && j.Seed != legacy {
			t.Errorf("baseline job %v salted: seed %d, want legacy %d", j, j.Seed, legacy)
		}
		if j.Variant != VariantBaseline && j.Seed == legacy {
			t.Errorf("variant job %v not salted away from the baseline stream", j)
		}
	}
}

// TestVariantMatrixWorkerIndependence is the satellite aggregator
// check: a variant-expanded matrix must snapshot identically at one and
// eight workers, rendering included.
func TestVariantMatrixWorkerIndependence(t *testing.T) {
	variantMatrix := func(workers int) Config {
		return Config{
			Devices:          []string{"D2", "D5"},
			Kinds:            []Kind{KindL2Fuzz, KindRFCOMM},
			Variants:         AblationVariants(),
			BaseSeed:         7,
			Workers:          workers,
			MaxPacketsPerJob: 10_000,
		}
	}
	serial, err := Run(variantMatrix(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(variantMatrix(8))
	if err != nil {
		t.Fatal(err)
	}
	// Wall time and pool size are the only legitimately scheduling-
	// dependent fields.
	serial.ScrubWall()
	parallel.ScrubWall()
	serial.Workers, parallel.Workers = 0, 0
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("variant-expanded reports differ between worker counts")
	}
	if a, b := serial.Render(), parallel.Render(); a != b {
		t.Errorf("variant-expanded renderings differ:\nserial:\n%s\nparallel:\n%s", a, b)
	}
	if len(serial.PerVariant) != len(AblationVariants()) {
		t.Errorf("PerVariant has %d rows, want %d", len(serial.PerVariant), len(AblationVariants()))
	}
}

// TestAblationFarmReproducesBenchOrdering is the acceptance criterion:
// one measurement-grade farm over the §IV-D grid must reproduce the
// bench ablation ordering — the baseline beats each ablated variant on
// the metric the ablated design choice claims to improve — from a
// single Report's per-variant table.
func TestAblationFarmReproducesBenchOrdering(t *testing.T) {
	rep, err := Run(Config{
		Devices:          []string{"D2"},
		Variants:         AblationVariants(),
		BaseSeed:         11,
		Workers:          4,
		MaxPacketsPerJob: 40_000,
		MeasurementGrade: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d jobs failed: %+v", rep.Failed, rep.Jobs)
	}
	get := func(name string) *VariantStats {
		g := rep.PerVariant[name]
		if g == nil {
			t.Fatalf("PerVariant missing %q: %+v", name, rep.PerVariant)
		}
		if g.Jobs != 1 || g.Metrics.Transmitted == 0 {
			t.Fatalf("variant %q not measured: %+v", name, g)
		}
		return g
	}
	baseline := get(VariantBaseline)
	noGuide := get(VariantNoStateGuiding)
	allFields := get(VariantAllFields)
	noGarbage := get(VariantNoGarbage)

	// State guiding earns its place on state coverage (paper Fig. 10).
	if baseline.Metrics.StatesCovered <= noGuide.Metrics.StatesCovered {
		t.Errorf("baseline states %d not above no-state-guiding %d",
			baseline.Metrics.StatesCovered, noGuide.Metrics.StatesCovered)
	}
	// Core-field-only mutation earns its place on the MP ratio (Table VII).
	if baseline.Metrics.MPRatio <= allFields.Metrics.MPRatio {
		t.Errorf("baseline MP %.4f not above all-fields %.4f",
			baseline.Metrics.MPRatio, allFields.Metrics.MPRatio)
	}
	// The garbage tail earns its place on the MP ratio too.
	if baseline.Metrics.MPRatio <= noGarbage.Metrics.MPRatio {
		t.Errorf("baseline MP %.4f not above no-garbage %.4f",
			baseline.Metrics.MPRatio, noGarbage.Metrics.MPRatio)
	}
	// The report must carry the grid as one table.
	render := rep.Render()
	if !strings.Contains(render, "Per variant") {
		t.Error("ablation farm rendering has no variant table")
	}
	for _, name := range rep.Variants {
		if !strings.Contains(render, name) {
			t.Errorf("variant table missing row for %q:\n%s", name, render)
		}
	}
}

// TestCustomVariantRunsTheSameOnWorkers pins that a variant outside
// the predefined grid is data every executor runs alike: its ablation
// reaches L2Fuzz jobs and every campaign run, as do the farm's
// counters, and the farm renders the same report in process and on
// worker subprocesses.
func TestCustomVariantRunsTheSameOnWorkers(t *testing.T) {
	farm := func() Config {
		return Config{
			Devices: []string{"D2"},
			Kinds:   []Kind{KindL2Fuzz, KindCampaign},
			Variants: []Variant{
				BaselineVariant(),
				{Name: "stateless", Ablation: core.Ablation{NoStateGuiding: true}},
			},
			BaseSeed:         7,
			Workers:          2,
			MaxPacketsPerJob: 20_000,
			CampaignRuns:     1,
			MeasurementGrade: true,
			Counters:         &telemetry.Counters{},
		}
	}
	lcfg := farm()
	local, err := Run(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if local.Failed != 0 {
		t.Fatalf("%d jobs failed: %+v", local.Failed, local.Jobs)
	}
	if got := lcfg.Counters.Snapshot().Packets; got != int64(local.TotalPackets) {
		t.Errorf("farm counters tallied %d packets, the report %d", got, local.TotalPackets)
	}
	states := make(map[string]int) // "kind/variant" → states covered
	for _, res := range local.Jobs {
		states[string(res.Job.Kind)+"/"+res.Job.Variant] = res.Summary.StatesCovered
		if got := res.Job.String(); res.Job.Variant == "stateless" && !strings.Contains(got, "[stateless]") {
			t.Errorf("job renders as %q, want the variant tag [stateless]", got)
		}
	}
	for _, k := range []Kind{KindL2Fuzz, KindCampaign} {
		base, stateless := states[string(k)+"/"+VariantBaseline], states[string(k)+"/stateless"]
		if stateless >= base {
			t.Errorf("%s: stateless job covered %d states, baseline %d; the ablation did not reach it", k, stateless, base)
		}
	}
	pcfg := farm()
	pcfg.Executor = NewProcExecutor(procConfig(2))
	proc, err := Run(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	local.ScrubWall()
	proc.ScrubWall()
	if l, p := local.Render(), proc.Render(); l != p {
		t.Errorf("custom variant renders differently:\nlocal:\n%s\nproc:\n%s", l, p)
	}
}

func TestVariantValidation(t *testing.T) {
	if _, err := Run(Config{Variants: []Variant{{Name: ""}}}); err == nil {
		t.Error("empty variant name accepted")
	}
	if _, err := Run(Config{Variants: []Variant{BaselineVariant(), BaselineVariant()}}); err == nil {
		t.Error("duplicate variant accepted")
	}
	if _, err := VariantByName("no-such-variant"); err == nil {
		t.Error("unknown variant name resolved")
	}
	for _, v := range AblationVariants() {
		got, err := VariantByName(v.Name)
		if err != nil || got.Name != v.Name {
			t.Errorf("VariantByName(%q) = %+v, %v", v.Name, got, err)
		}
	}
}

// TestPredefinedVariantNamesKeepTheirBehaviour pins that a variant
// named like a predefined one behaves like it under every executor: a
// config whose variant ablates otherwise than its namesake is refused,
// and the predefined grid renders the same report in process and on
// workers.
func TestPredefinedVariantNamesKeepTheirBehaviour(t *testing.T) {
	for _, v := range []Variant{
		{Name: VariantNoGarbage},
		{Name: VariantAllFields, Ablation: core.Ablation{NoGarbage: true}},
		{Name: VariantBaseline, Ablation: core.Ablation{MutateAllFields: true}},
	} {
		if _, err := (Config{Devices: []string{"D2"}, Variants: []Variant{v}}).withDefaults(); err == nil {
			t.Errorf("variant %q with other behaviour than its predefined namesake accepted", v.Name)
		}
	}
	grid := func() Config {
		return Config{
			Devices:          []string{"D2"},
			Kinds:            []Kind{KindL2Fuzz, KindCampaign},
			Variants:         AblationVariants(),
			BaseSeed:         7,
			Workers:          2,
			MaxPacketsPerJob: 20_000,
			CampaignRuns:     1,
		}
	}
	local, err := Run(grid())
	if err != nil {
		t.Fatalf("AblationVariants refused: %v", err)
	}
	pcfg := grid()
	pcfg.Executor = NewProcExecutor(procConfig(2))
	proc, err := Run(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	local.ScrubWall()
	proc.ScrubWall()
	if l, p := local.Render(), proc.Render(); l != p {
		t.Errorf("ablation grid renders differently:\nlocal:\n%s\nproc:\n%s", l, p)
	}
}
