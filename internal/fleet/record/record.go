// Package record declares the farm's persisted record schema once: the
// journal's record types and payloads, and the job and outcome shapes
// the worker wire protocol shares with them. The fleet writes and
// replays these records and the journal analyzer reads them, both
// through this package, so the analyzer depends on the record format
// and never on the farm implementation.
package record

import (
	"encoding/json"
	"fmt"
	"time"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/core"
	"l2fuzz/internal/metrics"
)

// Version pins the journal schema. Version 2 added the encoded target
// spec to job records, the executor worker id to result records, and
// the worker lifecycle record. Version 3 added the per-job trace span
// to result records and the counter-sample interval to the header, and
// re-based every record's envelope offset onto the farm's start time.
// Version 4 writes each target's spec once, in the header (Specs), and
// job records name their target by Device alone; a version-3 job's
// inline spec is ignored on read.
const Version = 4

// The journal's record type tags. A journal additionally carries
// telemetry.RecordSample records when the writer runs a counter
// sampler.
const (
	TypeFarm       = "farm"
	TypeJobStarted = "job-started"
	TypeJobDone    = "job-done"
	TypeFinding    = "finding"
	TypeWorker     = "worker"
)

// Kind names the fuzzer a job runs; the fleet's engine registry
// defines which kinds exist.
type Kind string

// Header is the farm record that opens a journal: enough of the matrix
// shape to check a replay config against the journal it is asked to
// fold.
type Header struct {
	Version  int      `json:"version"`
	Jobs     int      `json:"jobs"`
	Workers  int      `json:"workers"`
	BaseSeed int64    `json:"baseSeed"`
	Targets  []string `json:"targets"`
	Kinds    []Kind   `json:"kinds"`
	Variants []string `json:"variants"`
	Shards   int      `json:"shards"`
	// Specs are the resolved target specs, once each, in Targets order:
	// the specs every job of the matrix runs against. Empty before
	// version 4.
	Specs []*device.Spec `json:"specs,omitempty"`
	// SampleInterval is how often the run's counter sampler wrote
	// sample records, when the writer declared it; an analyzer labels
	// the sampled series' time axis with it. Zero means unknown or no
	// sampler.
	SampleInterval time.Duration `json:"sampleIntervalNs,omitempty"`
}

// Job is one cell×shard of a farm matrix: one fuzzer kind under one
// configuration variant against one target with one derived seed.
type Job struct {
	// Index is the job's position in the matrix enumeration
	// (device-major, then kind, then variant, then shard).
	Index int `json:"index"`
	// Device is the target name: a catalog ID ("D1".."D8") or a custom
	// spec name. Seeds, budgets and report sections key by it.
	Device string `json:"device"`
	// Spec is the resolved target spec the job runs against; treat it
	// as read-only. It is never encoded: a journal lists each target's
	// spec once in its Header, and a worker session once in its farm
	// message, and both name a job's target by Device. Specs are pure
	// data (defect triggers are declarative descriptors, not closures),
	// so journals stay self-describing and worker subprocesses need no
	// target catalog of their own.
	Spec *device.Spec `json:"-"`
	// Kind is the fuzzer kind.
	Kind Kind `json:"kind"`
	// Variant names the job's configuration variant.
	Variant string `json:"variant"`
	// Shard is the seed shard, 0..Shards-1.
	Shard int `json:"shard"`
	// Seed is the derived job seed.
	Seed int64 `json:"seed"`
	// MaxPackets is the job's resolved traffic budget.
	MaxPackets int `json:"maxPackets"`
}

// Span is one job's trace through the farm's execution phases, as
// monotonic offsets from the farm's start — the same clock origin the
// journal's record offsets and counter samples use, so every phase of
// every job lies on one time axis.
//
// The phases, in order:
//
//	QueuedNs      the job entered the feed (zero for the initial
//	              enqueue at Start; the requeue time after a worker
//	              died under the job)
//	DispatchedNs  a dispatcher popped the job off the feed
//	StartedNs     the executor began executing it — for a subprocess
//	              executor, after an idle worker was acquired, as the
//	              job hit the wire
//	FinishedNs    the executor returned the result to the dispatcher
//
// ExecNs is the execution wall time measured inside the executor,
// around the job run itself: in-process it spans the run on the
// dispatcher goroutine; a worker subprocess measures it around its own
// run and ships it back in the result, so (FinishedNs-StartedNs)-ExecNs
// is the wire transport cost that in-process execution does not pay.
//
// Spans are measurements, not identity: reports from different runs or
// executors compare equal once their wall-clock fields are scrubbed.
type Span struct {
	QueuedNs     time.Duration `json:"queuedNs"`
	DispatchedNs time.Duration `json:"dispatchedNs"`
	StartedNs    time.Duration `json:"startedNs"`
	FinishedNs   time.Duration `json:"finishedNs"`
	ExecNs       time.Duration `json:"execNs"`
}

// QueueWait is how long the job sat in the feed before a dispatcher
// picked it up.
func (s Span) QueueWait() time.Duration { return max(s.DispatchedNs-s.QueuedNs, 0) }

// DispatchWait is how long the dispatcher took to begin execution —
// for a subprocess executor, the wait for an idle worker.
func (s Span) DispatchWait() time.Duration { return max(s.StartedNs-s.DispatchedNs, 0) }

// Execute is the in-executor execution time (ExecNs).
func (s Span) Execute() time.Duration { return max(s.ExecNs, 0) }

// Transport is the executor overhead around execution: time between
// Started and Finished not spent executing. Near zero in-process; the
// wire codec and pipe cost for a subprocess worker.
func (s Span) Transport() time.Duration { return max(s.FinishedNs-s.StartedNs-s.ExecNs, 0) }

// IsZero reports whether the span was never stamped (a hand-built
// result, or a version-2 journal).
func (s Span) IsZero() bool { return s == Span{} }

// Occurrence is one finding a job produced, with its repeat count.
type Occurrence struct {
	// Finding is the detected vulnerability.
	Finding core.Finding `json:"finding"`
	// Count is how many times the job reproduced it.
	Count int `json:"count"`
	// Dump is the device-side crash artefact, "" when none.
	Dump string `json:"dump,omitempty"`
}

// Outcome is what executing a job measured, as the journal's result
// record and the worker wire's result both carry it.
type Outcome struct {
	// Err is the job's failure text, "" when it completed.
	Err string `json:"err,omitempty"`
	// PacketsSent counts the job's transmitted packets.
	PacketsSent int `json:"packetsSent"`
	// ElapsedNs is the job's simulated duration.
	ElapsedNs time.Duration `json:"elapsedNs"`
	// Crashed reports whether the target ended the job crashed.
	Crashed bool `json:"crashed,omitempty"`
	// Summary is the job's trace-metrics summary.
	Summary metrics.Summary `json:"summary"`
}

// Failed reports whether the job errored. Failed jobs occupied a
// worker but contribute no packets, metrics or findings to a fold.
func (o Outcome) Failed() bool { return o.Err != "" }

// Progress is the farm's job count when a record was written.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Result is a job-done record: one job's outcome with its executor
// worker, wall time, trace span and findings.
type Result struct {
	Job Job `json:"job"`
	// Worker is the executor worker that ran the job.
	Worker string `json:"worker,omitempty"`
	Outcome
	// WallNs is the job's real-time duration on its worker.
	WallNs   time.Duration `json:"wallNs"`
	Span     Span          `json:"span"`
	Findings []Occurrence  `json:"findings,omitempty"`
	Progress
}

// Deterministic is the result without its wall-clock fields: the
// executor worker, the wall time, the trace span and the progress
// counters (Worker, WallNs, Span, Done and Total) differ between runs
// of one config. What is left, the job identity, the outcome with its
// summary and the findings, is a pure function of the job, so two runs
// of one config agree on it exactly.
func (r Result) Deterministic() Result {
	r.Worker, r.WallNs, r.Span, r.Progress = "", 0, Span{}, Progress{}
	return r
}

// DecodeResult decodes a job-done record's payload. It rejects a
// negative duration, which no farm writes and which readers would use
// as a bucket or timeline index.
func DecodeResult(data []byte) (Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return Result{}, fmt.Errorf("job-done record: %w", err)
	}
	if s := r.Span; min(r.WallNs, r.ElapsedNs, s.QueuedNs, s.DispatchedNs, s.StartedNs, s.FinishedNs, s.ExecNs) < 0 {
		return Result{}, fmt.Errorf("job-done record of job %d: negative duration (wall %v, elapsed %v, span %+v)", r.Job.Index, r.WallNs, r.ElapsedNs, s)
	}
	return r, nil
}

// FindingRecord is one de-duplicated finding with its farm-wide
// provenance. Its Finding carries no repro trace: a corpus-backed farm
// writes the canonical first occurrence's trace to its store, which is
// the trace's only long-lived owner.
type FindingRecord struct {
	// Signature is the de-duplication key.
	Signature core.Signature
	// Finding is the first occurrence.
	Finding core.Finding
	// Devices lists the target names (catalog IDs or custom spec names)
	// that exhibited it, sorted.
	Devices []string
	// Kinds lists the fuzzer kinds that produced it, in the engine
	// table's order.
	Kinds []Kind
	// Count sums occurrences across all jobs.
	Count int
	// Dump is the first non-empty crash artefact.
	Dump string
	// Known marks a signature the configured corpus store already held
	// before this farm run: a reproduction of yesterday's finding, not
	// a new one. Known findings are still counted and listed, but they
	// are not announced as new and not re-written to the store.
	Known bool
}

// Finding is a finding record: a signature the farm saw for the first
// time, as it stood when the job that brought it folded.
type Finding struct {
	Record FindingRecord `json:"record"`
	Job    Job           `json:"job"`
	Progress
}

// Deterministic is the finding record without the parts that depend
// on which job folded its signature first, which is worker scheduling:
// the first-sight snapshot (occurrence, devices, kinds, count and
// dump), the job and the progress counters. What is left, the
// signature and whether the corpus already knew it, is a pure function
// of the config; the occurrences themselves are compared job by job in
// the job-done records.
func (f Finding) Deterministic() Finding {
	return Finding{Record: FindingRecord{Signature: f.Record.Signature, Known: f.Record.Known}}
}

// WorkerChange is a worker record: one executor worker lifecycle
// change.
type WorkerChange struct {
	Worker string `json:"worker"`
	Up     bool   `json:"up"`
	// Err is why the worker went down; empty for a clean shutdown.
	Err string `json:"err,omitempty"`
	Progress
}
