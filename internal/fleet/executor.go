package fleet

import (
	"errors"
	"time"
)

// Executor abstracts where a farm's jobs physically run. The farm —
// matrix enumeration, seed derivation, event stream, aggregation,
// journaling, corpus persistence — is transport-agnostic: it hands an
// executor one Job at a time and folds the JobResult it gets back, so
// the in-process pool (LocalExecutor) and subprocess workers
// (ProcExecutor) produce identical reports from identical configs.
//
// The farm owns the executor's lifecycle: Start once with the resolved
// farm config before any Execute, Execute concurrently from up to
// Config.Workers dispatchers, Close once every job is accounted for.
type Executor interface {
	// Start prepares the executor for one farm run. cfg is the resolved
	// (defaulted, validated) farm config.
	Start(cfg Config) error
	// Execute runs one job to completion and returns its result. A
	// non-nil error is a transport failure — the job did not run to
	// completion and the farm may requeue it on another worker. Failures
	// of the job itself travel inside JobResult.Err.
	Execute(job Job) (JobResult, error)
	// Close releases the executor's resources. The farm calls it after
	// the last job is accounted for.
	Close() error
}

// ErrNoWorkers is the transport failure Execute returns when an
// executor has no live workers left. The farm fails the job immediately
// instead of requeueing: without workers a retry can only spin.
var ErrNoWorkers = errors.New("fleet: executor has no live workers")

// LocalWorkerID is the JobResult.Worker value of the in-process pool.
const LocalWorkerID = "local"

// WorkerEvent is one executor worker lifecycle change, surfaced in the
// farm's event stream (EventWorkerUp, EventWorkerDown) and journal.
type WorkerEvent struct {
	// Worker is the executor's worker id ("proc/0", ...).
	Worker string
	// Up discriminates spawn from retirement.
	Up bool
	// Err is why the worker went down; empty for a clean shutdown.
	Err string
}

// workerNotifier is implemented by executors that report worker
// retirements; the farm installs its sink before Start. Callbacks must
// not be invoked from inside Start (the farm's event consumer is not
// running yet).
type workerNotifier interface {
	setNotify(func(WorkerEvent))
}

// workerReporter is implemented by executors with identifiable workers;
// the farm emits an EventWorkerUp per id after Start, before any job
// event.
type workerReporter interface {
	workerIDs() []string
}

// LocalExecutor runs jobs in-process, one per calling dispatcher — the
// default executor, behaviorally identical to the pre-executor farm's
// worker pool. Its zero value is ready for a farm to Start.
type LocalExecutor struct {
	cfg Config
}

// Start retains the resolved farm config for Execute.
func (e *LocalExecutor) Start(cfg Config) error {
	e.cfg = cfg
	return nil
}

// Execute runs the job on the calling goroutine. It never returns a
// transport error: the job runs to completion in-process or records its
// failure in the result. Execution starts immediately — StartedNs is
// stamped here and ExecNs measured around the run, so a local job's
// Span.Transport is (near) zero by construction.
func (e *LocalExecutor) Execute(job Job) (JobResult, error) {
	started := time.Now()
	res := runJob(e.cfg, job)
	res.Worker = LocalWorkerID
	res.Span.StartedNs = sinceEpoch(e.cfg.epoch, started)
	res.Span.ExecNs = time.Since(started)
	return res, nil
}

// Close is a no-op: local workers are the farm's own dispatchers.
func (e *LocalExecutor) Close() error { return nil }
