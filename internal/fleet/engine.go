package fleet

import (
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/sm"
	"l2fuzz/internal/campaign"
	"l2fuzz/internal/core"
	"l2fuzz/internal/fuzzers"
	"l2fuzz/internal/fuzzers/bfuzz"
	"l2fuzz/internal/fuzzers/bss"
	"l2fuzz/internal/fuzzers/defensics"
	"l2fuzz/internal/rfcommfuzz"
	"l2fuzz/internal/telemetry"
	"l2fuzz/internal/testbed"
)

// Engine is one schedulable fuzzer kind: the behaviour behind a Kind
// value. The farm itself is engine-agnostic — rig construction, variant
// resolution, seed derivation, corpus recording, telemetry, journaling
// and reporting all go through this interface, so a new engine slots
// into every farm surface by joining the engines table and nothing
// else.
type Engine interface {
	// Kind is the engine's matrix identity: the value jobs, reports,
	// journals and corpus entries carry.
	Kind() Kind
	// ProducesFindings reports whether the engine has a detection phase.
	// Engines without one (the paper's comparison baselines) contribute
	// traffic and metrics but never classified findings, so corpus-backed
	// farms skip trace recording for their jobs.
	ProducesFindings() bool
	// NeedsRFCOMM reports whether the engine fuzzes over RFCOMM: its
	// rigs get the RFCOMM-capable testbed variant (serial services
	// mounted when the spec brings none, RFCOMM port pairing-free, and —
	// on defect-armed farms — the reserved-DLCI mux defect).
	NeedsRFCOMM() bool
	// TraceBudget estimates the engine's total traffic for one job from
	// the job's packet budget, sizing the repro-trace recorder. No
	// variant can change a job's budget, so the estimate made when the
	// rig is built holds for the whole job.
	TraceBudget(cfg Config, job Job) int
	// Run executes the job on its private rig, folding the outcome into
	// res. An engine built on the L2Fuzz core merges the core's packet,
	// malformed and mutation totals into cfg.Counters once, after a
	// successful run. Run reports failures through res.Err, never by
	// panicking: one failed cell must not bring the farm down.
	Run(cfg Config, r *testbed.Rig, job Job, v Variant, res *JobResult)
}

// engines is the engine registry, in report order: AllKinds, the
// per-fuzzer report table and FindingRecord.Kinds all list kinds in
// this order. The paper's four compared fuzzers come first, then the
// two §V extensions, then the scenario-diversity engines of
// engine_scenario.go: the same methodology pointed at the SDP and
// state-machine surfaces. New kinds append, so historical reports
// (which iterate AllKinds) render byte-identically.
var engines = []Engine{
	l2fuzzEngine{},
	baselineEngine{kind: KindDefensics,
		build: func(cl *host.Client, seed int64) fuzzers.Fuzzer { return defensics.New(cl, seed) }},
	baselineEngine{kind: KindBFuzz,
		build: func(cl *host.Client, seed int64) fuzzers.Fuzzer { return bfuzz.New(cl, seed) }},
	baselineEngine{kind: KindBSS,
		build: func(cl *host.Client, seed int64) fuzzers.Fuzzer { return bss.New(cl, seed) }},
	rfcommEngine{},
	campaignEngine{},
	sdpEngine{},
	smEngine{},
}

// EngineFor resolves a kind to its engine.
func EngineFor(k Kind) (Engine, bool) {
	for _, e := range engines {
		if e.Kind() == k {
			return e, true
		}
	}
	return nil, false
}

// AllKinds returns every kind in report order.
func AllKinds() []Kind {
	kinds := make([]Kind, len(engines))
	for i, e := range engines {
		kinds[i] = e.Kind()
	}
	return kinds
}

// l2fuzzEngine runs the paper's fuzzer: state-guided, core-field-aware
// L2CAP signaling mutation with liveness detection.
type l2fuzzEngine struct{}

func (l2fuzzEngine) Kind() Kind                          { return KindL2Fuzz }
func (l2fuzzEngine) ProducesFindings() bool              { return true }
func (l2fuzzEngine) NeedsRFCOMM() bool                   { return false }
func (l2fuzzEngine) TraceBudget(cfg Config, job Job) int { return job.MaxPackets }

func (l2fuzzEngine) Run(cfg Config, r *testbed.Rig, job Job, v Variant, res *JobResult) {
	report, err := core.New(r.Client, core.Config{
		Seed:       job.Seed,
		MaxPackets: job.MaxPackets,
		Ablation:   v.Ablation,
	}).Run(r.Device.Address())
	if err != nil {
		res.Err = err
		return
	}
	cfg.Counters.Merge(telemetry.CounterSnapshot{Packets: int64(report.PacketsSent),
		Malformed: int64(report.MalformedSent), Mutations: int64(report.Mutations)})
	res.PacketsSent = report.PacketsSent
	res.Elapsed = report.Elapsed
	if report.Found {
		res.Findings = []Occurrence{{Finding: report.Finding, Count: 1, Dump: crashDump(r.Device)}}
	}
}

// baselineEngine runs one of the comparison fuzzers. Baselines have no
// detection phase — the paper's evaluation found none of the zero-days
// with them — so they contribute traffic, metrics and (at most) a
// crashed-device flag, never classified findings. They expose no
// configuration knobs either, so a variant only distinguishes their
// jobs through its seed salt.
type baselineEngine struct {
	kind  Kind
	build func(cl *host.Client, seed int64) fuzzers.Fuzzer
}

func (e baselineEngine) Kind() Kind                        { return e.kind }
func (baselineEngine) ProducesFindings() bool              { return false }
func (baselineEngine) NeedsRFCOMM() bool                   { return false }
func (baselineEngine) TraceBudget(cfg Config, job Job) int { return job.MaxPackets }

func (e baselineEngine) Run(cfg Config, r *testbed.Rig, job Job, v Variant, res *JobResult) {
	result, err := e.build(r.Client, job.Seed).Run(r.Device.Address(), job.MaxPackets)
	if err != nil {
		res.Err = err
		return
	}
	res.PacketsSent = result.PacketsSent
	res.Elapsed = result.Elapsed
}

// rfcommEngine runs the §V RFCOMM extension fuzzer. A mux death maps
// into the shared signature space as an Open-state finding on the
// RFCOMM port: Connection Aborted when L2CAP survived the mux (the
// paper's layer-isolation observation), Connection Reset when the whole
// stack went with it.
type rfcommEngine struct{}

func (rfcommEngine) Kind() Kind                          { return KindRFCOMM }
func (rfcommEngine) ProducesFindings() bool              { return true }
func (rfcommEngine) NeedsRFCOMM() bool                   { return true }
func (rfcommEngine) TraceBudget(cfg Config, job Job) int { return job.MaxPackets }

func (rfcommEngine) Run(cfg Config, r *testbed.Rig, job Job, v Variant, res *JobResult) {
	fcfg := rfcommfuzz.Config{Seed: job.Seed, MaxFrames: job.MaxPackets}
	report, err := rfcommfuzz.New(r.Client, fcfg).Run(r.Device.Address())
	if err != nil {
		res.Err = err
		return
	}
	res.PacketsSent = report.FramesSent
	res.Elapsed = report.Elapsed
	if report.Found {
		class := core.ErrConnectionReset
		if report.L2CAPAlive {
			class = core.ErrConnectionAborted
		}
		res.Findings = []Occurrence{{
			Finding: core.Finding{
				Time:           report.Elapsed,
				Error:          class,
				State:          sm.StateOpen,
				PSM:            l2cap.PSMRFCOMM,
				Trace:          report.Trace,
				TraceTruncated: report.TraceTruncated,
			},
			Count: 1,
			Dump:  crashDump(r.Device),
		}}
	}
}

// campaignEngine runs the §V long-term campaign extension: repeated
// fuzzing runs with automatic device resets and cross-run finding
// de-duplication.
type campaignEngine struct{}

func (campaignEngine) Kind() Kind             { return KindCampaign }
func (campaignEngine) ProducesFindings() bool { return true }
func (campaignEngine) NeedsRFCOMM() bool      { return false }

// TraceBudget covers every campaign run: the recorder must hold the
// worst case of a whole job's traffic landing in one trace epoch.
func (campaignEngine) TraceBudget(cfg Config, job Job) int {
	return job.MaxPackets * cfg.CampaignRuns
}

func (campaignEngine) Run(cfg Config, r *testbed.Rig, job Job, v Variant, res *JobResult) {
	report, err := campaign.New(r.Client, r.Device, campaign.Config{
		Seed:             job.Seed,
		MaxRuns:          cfg.CampaignRuns,
		MaxPacketsPerRun: job.MaxPackets,
		Ablation:         v.Ablation,
	}).Run()
	if err != nil {
		res.Err = err
		return
	}
	cfg.Counters.Merge(telemetry.CounterSnapshot{Packets: int64(report.TotalPackets),
		Malformed: int64(report.TotalMalformed), Mutations: int64(report.TotalMutations)})
	res.PacketsSent = report.TotalPackets
	res.Elapsed = report.TotalElapsed
	for _, f := range report.Findings {
		res.Findings = append(res.Findings, Occurrence{Finding: f.Finding, Count: f.Count, Dump: f.Dump})
	}
}
