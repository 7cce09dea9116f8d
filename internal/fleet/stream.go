package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// EventType discriminates farm events.
type EventType int

// The farm event types, in the order a single job emits them, followed
// by the executor worker lifecycle events.
const (
	// EventJobStarted fires when a dispatcher picks a job off the feed
	// (again on every retry of a requeued job).
	EventJobStarted EventType = iota + 1
	// EventJobDone fires after a job's result is folded into the
	// aggregate; Event.Result carries it, its repro traces already
	// taken by the fold (see Aggregator.Add).
	EventJobDone
	// EventNewFinding fires, after its job's EventJobDone, for every
	// finding signature the farm had not seen before that job;
	// Event.Finding carries the farm-wide record as of that moment.
	EventNewFinding
	// EventWorkerUp fires once per ProcExecutor worker before any job
	// event; Event.Worker names it. A farm that runs its jobs in
	// process emits no worker lifecycle events.
	EventWorkerUp
	// EventWorkerDown fires when a ProcExecutor worker retires — cleanly
	// at farm shutdown (empty Event.WorkerErr) or because it died
	// mid-run (WorkerErr says why; the farm requeues the lost job).
	EventWorkerDown
)

func (t EventType) String() string {
	switch t {
	case EventJobStarted:
		return "JobStarted"
	case EventJobDone:
		return "JobDone"
	case EventNewFinding:
		return "NewFinding"
	case EventWorkerUp:
		return "WorkerUp"
	case EventWorkerDown:
		return "WorkerDown"
	default:
		return "Unknown"
	}
}

// Event is one entry of a farm's progress stream.
type Event struct {
	// Type says what happened.
	Type EventType
	// Time is the emission timestamp, taken from time.Now at emission so
	// it carries Go's monotonic clock reading — durations between events
	// survive wall-clock steps.
	Time time.Time
	// Job is the matrix cell the event concerns; Job.Variant names the
	// configuration variant it ran under, so a streaming consumer can
	// attribute progress and findings along the variant axis. Zero for
	// worker lifecycle events.
	Job Job
	// Result is the job's outcome; EventJobDone only.
	Result *JobResult
	// Finding is the new de-duplicated finding; EventNewFinding only.
	Finding *FindingRecord
	// Worker is the ProcExecutor worker id; EventWorkerUp/Down only.
	Worker string
	// WorkerErr is why a worker went down ("" for a clean shutdown);
	// EventWorkerDown only.
	WorkerErr string
	// Done and Total report farm progress at emission time: completed
	// jobs so far versus matrix size.
	Done, Total int
}

// maxJobAttempts bounds how many times one job is tried across worker
// transport failures before the farm records it as failed. Three
// attempts absorb a crashed worker plus an unlucky reassignment without
// letting a job that kills every worker it touches starve the farm.
const maxJobAttempts = 3

// Farm is a running fuzzing farm: dispatchers run the job matrix, in
// process or on the configured ProcExecutor, while the farm emits
// Events and keeps a live aggregate that can be snapshotted at any
// moment.
//
// The consumer contract: drain Events() — the channel is unbuffered,
// so dispatchers pause at emission until the consumer keeps up, and the
// stream closes once every job is done. Wait drains whatever the
// consumer has not read, so "start, range over Events, Wait" and
// "start, Wait" both terminate.
type Farm struct {
	cfg    Config
	proc   *ProcExecutor // nil: jobs run in process
	total  int
	agg    *Aggregator
	events chan Event
	feed   chan Job
	start  time.Time

	// emitMu serializes fold-and-emit so event order, Done counts and
	// the aggregate all advance consistently.
	emitMu sync.Mutex
	done   int

	// retryMu guards the per-job transport-failure counts and the
	// per-job queued timestamps.
	retryMu  sync.Mutex
	attempts map[int]int
	queued   map[int]time.Duration
}

// Start validates the matrix and launches the farm: a ProcExecutor is
// started (spawning its worker subprocesses), the job matrix is
// dispatched from cfg.Workers dispatcher goroutines, and results fold
// into a live Aggregator as they arrive. The error covers matrix
// validation and executor startup only; a ProcExecutor that already
// ran a farm is refused before it spawns anything.
func Start(cfg Config) (*Farm, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	jobs := buildJobs(cfg)
	// The farm's start is the run's one monotonic clock origin: job
	// trace spans (stamped here and in ProcExecutor via cfg.epoch) and
	// journal record offsets (via SetEpoch below) all measure from it.
	cfg.epoch = time.Now()
	f := &Farm{
		cfg:      cfg,
		proc:     cfg.Executor,
		total:    len(jobs),
		agg:      newAggregator(cfg, len(jobs)),
		events:   make(chan Event),
		start:    cfg.epoch,
		attempts: make(map[int]int),
		queued:   make(map[int]time.Duration),
	}
	var ups []string
	if f.proc != nil {
		if err := f.proc.start(cfg, f.emitWorker); err != nil {
			return nil, err
		}
		ups = f.proc.workerIDs()
	}

	if cfg.Journal != nil {
		cfg.Journal.SetEpoch(f.start)
	}
	f.journalHeader(jobs)

	// The feed holds the whole matrix, so requeueing a job a worker
	// died under never blocks: occupancy is bounded by the matrix size
	// (every requeued job was popped first).
	f.feed = make(chan Job, len(jobs))
	for _, j := range jobs {
		f.feed <- j
	}
	if f.total == 0 {
		close(f.feed)
	}

	// Worker-up events precede every job event: dispatchers hold until
	// the ups are out.
	upsDone := make(chan struct{})
	go func() {
		for _, id := range ups {
			f.emitWorker(WorkerEvent{Worker: id, Up: true})
		}
		close(upsDone)
	}()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-upsDone
			f.dispatch()
		}()
	}
	go func() {
		wg.Wait()
		if f.proc != nil {
			// Closing the executor retires its workers; their clean
			// worker-down events are emitted from inside close, before
			// the stream ends.
			f.proc.close()
		}
		close(f.events)
	}()
	return f, nil
}

// Events returns the farm's progress stream. The channel closes after
// the last job's events are delivered.
func (f *Farm) Events() <-chan Event { return f.events }

// dispatch runs jobs until the matrix is exhausted. A transport
// failure requeues the job within its retry budget; past it, the
// failure becomes the job's result.
func (f *Farm) dispatch() {
	for job := range f.feed {
		f.emitStarted(job)
		dispatched := time.Now()
		res, err := f.execute(job)
		if err != nil {
			if f.requeue(job, err) {
				continue
			}
			res = JobResult{Job: job, Err: fmt.Errorf("executor: %w", err)}
		}
		res.Wall = time.Since(dispatched)
		// The dispatcher owns the span's farm-side phases; execute
		// stamped StartedNs/ExecNs (both stay zero on the past-retry
		// failure path above — the job never executed).
		res.Span.QueuedNs = f.queuedAt(job.Index)
		res.Span.DispatchedNs = sinceEpoch(f.start, dispatched)
		res.Span.FinishedNs = sinceEpoch(f.start, time.Now())
		f.finish(res)
	}
}

// LocalWorkerID is the JobResult.Worker value of a job run in process.
const LocalWorkerID = "local"

// execute runs one job to completion: on the ProcExecutor when the farm
// has one, else in process on the calling dispatcher. A non-nil error
// is a transport failure — the job did not run to completion and the
// farm may requeue it on another worker; failures of the job itself
// travel inside JobResult.Err. An in-process job starts at once:
// StartedNs is stamped here and ExecNs measured around the run, so its
// Span.Transport is (near) zero by construction.
func (f *Farm) execute(job Job) (JobResult, error) {
	if f.proc != nil {
		return f.proc.execute(job)
	}
	started := time.Now()
	res := runJob(f.cfg, job)
	res.Worker = LocalWorkerID
	res.Span.StartedNs = sinceEpoch(f.start, started)
	res.Span.ExecNs = time.Since(started)
	return res, nil
}

// sinceEpoch places t on the farm's span clock. A zero epoch (a
// hand-built config that never went through Start) yields zero offsets
// rather than nonsense ones.
func sinceEpoch(epoch, t time.Time) time.Duration {
	if epoch.IsZero() {
		return 0
	}
	return max(t.Sub(epoch), 0)
}

// queuedAt reports when a job last entered the feed: zero for the
// initial enqueue (the whole matrix is queued at farm start), the
// requeue time for jobs a worker died under.
func (f *Farm) queuedAt(index int) time.Duration {
	f.retryMu.Lock()
	defer f.retryMu.Unlock()
	return f.queued[index]
}

// requeue returns a transport-failed job to the feed and reports
// whether it did. A job out of attempts is not requeued, and neither is
// any job once the ProcExecutor is out of workers — a retry then could
// only spin.
func (f *Farm) requeue(job Job, err error) bool {
	if errors.Is(err, ErrNoWorkers) {
		return false
	}
	f.retryMu.Lock()
	f.attempts[job.Index]++
	n := f.attempts[job.Index]
	if n < maxJobAttempts {
		// Re-stamp the queued time under the same lock that counted the
		// attempt: the span's queue phase restarts with the retry.
		f.queued[job.Index] = sinceEpoch(f.start, time.Now())
	}
	f.retryMu.Unlock()
	if n >= maxJobAttempts {
		return false
	}
	f.feed <- job
	return true
}

// emitStarted announces a job pick-up.
func (f *Farm) emitStarted(job Job) {
	f.emitMu.Lock()
	defer f.emitMu.Unlock()
	f.cfg.Counters.CountJobStarted()
	f.journalStarted(job)
	f.events <- Event{Type: EventJobStarted, Time: time.Now(), Job: job, Done: f.done, Total: f.total}
}

// finish folds one result and emits its JobDone and NewFinding events.
// Journal records are written under emitMu, so their order matches the
// event stream's. The last job to finish closes the feed, releasing the
// dispatchers.
func (f *Farm) finish(res JobResult) {
	f.emitMu.Lock()
	defer f.emitMu.Unlock()
	fresh := f.agg.Add(res)
	f.done++
	f.cfg.Counters.CountJobDone(res.Err != nil)
	f.cfg.Counters.AddFindings(len(fresh))
	f.journalResult(res)
	f.events <- Event{Type: EventJobDone, Time: time.Now(), Job: res.Job, Result: &res, Done: f.done, Total: f.total}
	for i := range fresh {
		f.journalFinding(fresh[i], res.Job)
		f.events <- Event{Type: EventNewFinding, Time: time.Now(), Job: res.Job, Finding: &fresh[i], Done: f.done, Total: f.total}
	}
	if f.done == f.total {
		close(f.feed)
	}
}

// emitWorker records one ProcExecutor worker lifecycle change in the
// journal and the event stream.
func (f *Farm) emitWorker(ev WorkerEvent) {
	f.emitMu.Lock()
	defer f.emitMu.Unlock()
	f.journalWorker(ev)
	typ := EventWorkerDown
	if ev.Up {
		typ = EventWorkerUp
	}
	f.events <- Event{Type: typ, Time: time.Now(), Worker: ev.Worker, WorkerErr: ev.Err, Done: f.done, Total: f.total}
}

// Snapshot reports the farm's aggregate at this moment: completed jobs,
// de-duplicated findings and merged metrics so far. Safe to call from
// any goroutine while the farm runs.
func (f *Farm) Snapshot() *Report {
	rep := f.agg.Snapshot()
	rep.Wall = time.Since(f.start)
	return rep
}

// Wait blocks until every job has finished — draining any events the
// consumer left unread — and returns the farm's final report.
func (f *Farm) Wait() *Report {
	for range f.events {
		// Discard: aggregation happens on the dispatcher side, so unread
		// events carry no information the final snapshot lacks.
	}
	return f.Snapshot()
}
