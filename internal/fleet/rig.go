package fleet

import (
	"fmt"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/telemetry"
	"l2fuzz/internal/testbed"
)

// newRig builds one job's private testbed through the shared builder:
// a fresh medium, target device, tester client and sniffer, so jobs
// share no mutable state. The job carries its resolved target spec —
// catalog or custom — and the engine's capability flags pick the rig
// variant (RFCOMM-capable rigs for engines that fuzz over RFCOMM) and
// decide whether the job records a repro trace.
func newRig(cfg Config, eng Engine, job Job) (*testbed.Rig, error) {
	if job.Spec == nil {
		return nil, fmt.Errorf("job %v carries no resolved target spec", job)
	}
	opts := testbed.Options{
		DisableVulns: cfg.MeasurementGrade,
		RFCOMM:       eng.NeedsRFCOMM(),
		TesterName:   "farm-worker",
		Counters:     cfg.Counters,
	}
	if cfg.recordTraces() && eng.ProducesFindings() {
		// Corpus-backed farms — and proc workers executing for one —
		// record the repro traces of every job that can contribute
		// findings (the baseline kinds never do, so recording them
		// would only hold wire buffers for nothing).
		// The limit comes from the job's budget, which no variant can
		// move. A trace that still outgrows it is marked truncated and
		// skipped at store time rather than persisted unreplayable.
		opts.Record = true
		opts.RecordLimit = traceLimit(eng.TraceBudget(cfg, job))
	}
	return testbed.New(*job.Spec, opts)
}

// traceLimit sizes a recorder for a traffic budget: every packet is one
// op, liveness probes and link churn roughly double it, and the slack
// absorbs scan and setup traffic.
func traceLimit(budget int) int { return 2*budget + 4096 }

// runJob executes one job on a fresh rig and folds the outcome into a
// JobResult. The job's kind resolves to its registered engine and its
// variant to the entry of that name in cfg.Variants, which a proc
// worker receives in its session's wireFarm. Job errors are recorded,
// not returned: one failed cell must not bring the farm down.
func runJob(cfg Config, job Job) JobResult {
	if cfg.Counters != nil {
		// The job counts into a private Counters whose cache lines stay
		// local to this worker, merged into the farm-wide set once at
		// job end — per-packet bumps must never bounce a shared cache
		// line between cores (measured at ~9% farm throughput when they
		// do). The live endpoint's traffic counters advance per
		// completed job; the job lifecycle counters stay live.
		farm := cfg.Counters
		local := &telemetry.Counters{}
		cfg.Counters = local
		defer func() { farm.Merge(local.Snapshot()) }()
	}
	res := JobResult{Job: job}
	eng, ok := EngineFor(job.Kind)
	if !ok {
		res.Err = fmt.Errorf("unknown kind %q", job.Kind)
		return res
	}
	r, err := newRig(cfg, eng, job)
	if err != nil {
		res.Err = fmt.Errorf("rig: %w", err)
		return res
	}
	eng.Run(cfg, r, job, cfg.variant(job.Variant), &res)
	res.Crashed = r.Device.Crashed()
	res.Summary = r.Sniffer.Summary()
	r.FlushTelemetry()
	return res
}

// crashDump renders the device's crash artefact, or "" when none.
func crashDump(d *device.Device) string {
	if dump := d.CrashDump(); dump != nil {
		return dump.Render()
	}
	return ""
}
