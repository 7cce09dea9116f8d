package fleet

import (
	"fmt"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/radio"
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

// frameTally counts the frames and bytes one rig's medium carries. The
// medium is single-goroutine by contract, so plain fields do.
type frameTally struct{ frames, bytes int64 }

func (t *frameTally) tap(f radio.TapFrame) {
	t.frames++
	t.bytes += int64(len(f.Data))
}

// runJob executes one job on a fresh rig and folds the outcome into a
// JobResult. The job's kind resolves to its registered engine and its
// variant to the entry of that name in cfg.Variants, which a proc
// worker receives in its session's wireFarm. Job errors are recorded,
// not returned: one failed cell must not bring the farm down.
//
// With cfg.Counters set, the job's frames and bytes land there once, at
// job end, as the engine's packet totals do at the end of its Run.
func runJob(cfg Config, job Job) JobResult {
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
	// Built only when counted: a counter-less job allocates nothing for
	// the tally.
	var tally *frameTally
	if cfg.Counters != nil {
		tally = &frameTally{}
		r.Medium.AddTap(tally.tap)
	}
	eng.Run(cfg, r, job, cfg.variant(job.Variant), &res)
	res.Crashed = r.Device.Crashed()
	res.Summary = r.Sniffer.Summary()
	if tally != nil {
		cfg.Counters.Merge(telemetry.CounterSnapshot{Frames: tally.frames, Bytes: tally.bytes})
	}
	return res
}

// crashDump renders the device's crash artefact, or "" when none.
func crashDump(d *device.Device) string {
	if dump := d.CrashDump(); dump != nil {
		return dump.Render()
	}
	return ""
}
