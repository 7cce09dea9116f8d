package fleet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/core"
	"l2fuzz/internal/fleet/record"
	"l2fuzz/internal/fleet/wire"
	"l2fuzz/internal/metrics"
	"l2fuzz/internal/telemetry"
)

// The worker wire protocol, spoken over a length-prefixed JSON framing
// (internal/fleet/wire). A session is: worker sends wireHello,
// coordinator answers with one wireFarm, then any number of wireJob →
// wireResult exchanges until the coordinator closes the worker's stdin
// (clean shutdown). The message structs below are the schema; a golden
// test pins their field paths so drift is deliberate.
//
// wireVersion pins the protocol. Both sides refuse a peer speaking a
// different version rather than mis-reading its frames. Version 2
// added span context: jobs carry their dispatch offset on the farm
// clock (echoed back as a desync check alongside the index) and
// results carry the worker-measured execution wall time, so the
// coordinator can split a proc job's wall into transport vs execute.
// Version 3 sends the matrix's variants in wireFarm, once per session,
// so a worker resolves a job's variant as the in-process pool does.
// Version 4 sends the resolved target specs in wireFarm the same way,
// and a job names its target by device alone.
const wireVersion = 4

// wireHello is the worker's opening message.
type wireHello struct {
	Version int `json:"version"`
	PID     int `json:"pid"`
}

// wireFarm is the per-run farm configuration a worker needs: the knobs
// of Config that affect job execution and are not already resolved into
// the jobs themselves.
type wireFarm struct {
	Version          int  `json:"version"`
	MeasurementGrade bool `json:"measurementGrade,omitempty"`
	CampaignRuns     int  `json:"campaignRuns"`
	// Variants is the matrix's variant axis; each job names its entry.
	Variants []Variant `json:"variants"`
	// Targets is the matrix's resolved device axis; each job names its
	// entry. Names are unique within a farm.
	Targets []*device.Spec `json:"targets"`
	// Record makes the worker's rigs record repro traces (the
	// coordinator holds a corpus store the worker cannot see).
	Record bool `json:"record,omitempty"`
	// Counters makes the worker count each job's telemetry into a
	// private Counters and ship its snapshot back in the job's result.
	Counters bool `json:"counters,omitempty"`
}

// wireJob is one job assignment: the job in its record form. Its
// target and variant travel by name, resolved against the session's
// wireFarm.Targets and wireFarm.Variants — specs are pure data since
// defects became declarative, so a worker needs no target catalog of
// its own and custom targets work unchanged.
type wireJob struct {
	record.Job
	// StartedNs is the job's span context: the offset on the farm's
	// monotonic clock at which the coordinator put the job on the wire.
	// The worker has no shared clock, so it cannot extend the span — it
	// echoes the value back in its result, giving the coordinator a
	// second desync check beyond the job index.
	StartedNs time.Duration `json:"startedNs"`
}

// wireOccurrence is one finding occurrence: record.Occurrence's fields
// plus the repro trace, which travels in its own field — core.Finding
// excludes Trace from JSON (report snapshots must not embed traces),
// but the coordinator's corpus store needs the worker-recorded ops.
// The fields stay flat for the same reason as wireResult's.
type wireOccurrence struct {
	Finding        core.Finding   `json:"finding"`
	Trace          []host.TraceOp `json:"trace,omitempty"`
	TraceTruncated bool           `json:"traceTruncated,omitempty"`
	Count          int            `json:"count"`
	Dump           string         `json:"dump,omitempty"`
}

// wireResult is one job's outcome, echoing the job index so the
// coordinator can detect a desynchronized worker. Its outcome fields
// are record.Outcome's, spelled out rather than embedded: the
// coordinator decodes one result per job, and encoding/json spends one
// more allocation per decode on an embedded struct.
type wireResult struct {
	Index       int           `json:"index"`
	Err         string        `json:"err,omitempty"`
	PacketsSent int           `json:"packetsSent"`
	ElapsedNs   time.Duration `json:"elapsedNs"`
	// StartedNs echoes the job's span context (see wireJob). ExecNs is
	// the execution wall time the worker measured around its own job
	// run — the coordinator subtracts it from the span's wire window to
	// isolate the transport cost.
	StartedNs time.Duration              `json:"startedNs"`
	ExecNs    time.Duration              `json:"execNs"`
	Crashed   bool                       `json:"crashed,omitempty"`
	Findings  []wireOccurrence           `json:"findings,omitempty"`
	Summary   metrics.Summary            `json:"summary"`
	Counters  *telemetry.CounterSnapshot `json:"counters,omitempty"`
}

// fromWireResult rebuilds a JobResult on the coordinator side. job is
// the coordinator's own Job (its Spec pointer stays pointer-identical
// to the farm's target list, exactly as local execution leaves it), and
// the worker-recorded traces are folded back into the findings so
// corpus persistence works unchanged.
func fromWireResult(wr wireResult, job Job, workerID string) JobResult {
	res := JobResult{Job: job, Worker: workerID}
	res.setOutcome(record.Outcome{
		Err:         wr.Err,
		PacketsSent: wr.PacketsSent,
		ElapsedNs:   wr.ElapsedNs,
		Crashed:     wr.Crashed,
		Summary:     wr.Summary,
	})
	// The span's executor-side phases come back over the wire: Started
	// from the coordinator's own send stamp (echoed), Exec measured by
	// the worker. The dispatcher fills the farm-side phases.
	res.Span.StartedNs = wr.StartedNs
	res.Span.ExecNs = wr.ExecNs
	for _, occ := range wr.Findings {
		f := occ.Finding
		f.Trace = occ.Trace
		f.TraceTruncated = occ.TraceTruncated
		res.Findings = append(res.Findings, Occurrence{Finding: f, Count: occ.Count, Dump: occ.Dump})
	}
	return res
}

// target resolves a target name against the session's targets.
func (fc wireFarm) target(name string) *device.Spec {
	for _, t := range fc.Targets {
		if t != nil && t.Name == name {
			return t
		}
	}
	return nil
}

// RunWorker runs the farm worker loop of a subprocess spawned by
// ProcExecutor: speak the wire protocol on r/w (the process's
// stdin/stdout), executing one job at a time until the coordinator
// closes the job stream. A clean shutdown returns nil; a protocol or
// transport failure returns the error (the coordinator sees the broken
// pipe either way and retires the worker).
func RunWorker(r io.Reader, w io.Writer) error {
	enc := wire.NewEncoder(w)
	dec := wire.NewDecoder(r)
	if err := enc.Encode(wireHello{Version: wireVersion, PID: os.Getpid()}); err != nil {
		return fmt.Errorf("fleet: worker hello: %w", err)
	}
	var fc wireFarm
	if err := dec.Decode(&fc); err != nil {
		return fmt.Errorf("fleet: worker farm config: %w", err)
	}
	if fc.Version != wireVersion {
		return fmt.Errorf("fleet: coordinator speaks wire version %d, this worker version %d", fc.Version, wireVersion)
	}
	for {
		var wj wireJob
		if err := dec.Decode(&wj); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("fleet: worker read job: %w", err)
		}
		if err := enc.Encode(workerRun(fc, wj)); err != nil {
			return fmt.Errorf("fleet: worker write result: %w", err)
		}
	}
}

// workerRun executes one wire job with a per-job config rebuilt from
// the farm message, mirroring what runJob sees under local execution.
// A job naming a target the session does not hold fails, as a job
// whose rig cannot be built does; the session goes on.
func workerRun(fc wireFarm, wj wireJob) wireResult {
	cfg := Config{
		MeasurementGrade: fc.MeasurementGrade,
		CampaignRuns:     fc.CampaignRuns,
		Variants:         fc.Variants,
		Workers:          1,
		forceRecord:      fc.Record,
	}
	var local *telemetry.Counters
	if fc.Counters {
		local = &telemetry.Counters{}
		cfg.Counters = local
	}
	job := Job(wj.Job)
	job.Spec = fc.target(job.Device)
	if job.Spec == nil {
		return wireResult{Index: wj.Index, Err: fmt.Sprintf("worker session holds no target %q", job.Device), StartedNs: wj.StartedNs}
	}
	execStart := time.Now()
	res := runJob(cfg, job)
	o := res.outcome()
	wr := wireResult{
		Index:       wj.Index,
		Err:         o.Err,
		PacketsSent: o.PacketsSent,
		ElapsedNs:   o.ElapsedNs,
		StartedNs:   wj.StartedNs,
		ExecNs:      time.Since(execStart),
		Crashed:     o.Crashed,
		Summary:     o.Summary,
	}
	for _, occ := range res.Findings {
		wr.Findings = append(wr.Findings, wireOccurrence{
			Finding:        occ.Finding,
			Trace:          occ.Finding.Trace,
			TraceTruncated: occ.Finding.TraceTruncated,
			Count:          occ.Count,
			Dump:           occ.Dump,
		})
	}
	if local != nil {
		s := local.Snapshot()
		wr.Counters = &s
	}
	return wr
}
