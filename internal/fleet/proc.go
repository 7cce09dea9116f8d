package fleet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"l2fuzz/internal/fleet/record"
	"l2fuzz/internal/fleet/wire"
)

// ProcConfig configures a ProcExecutor.
type ProcConfig struct {
	// Procs is the worker subprocess count. Zero means the farm's
	// resolved Workers count; a negative count is an error. The farm
	// runs at most Config.Workers jobs in flight, so extra workers
	// beyond that idle.
	Procs int
	// Command is the argv spawning one worker; the spawned process must
	// run the wire protocol on its stdin/stdout (RunWorker). Empty means
	// re-exec this binary with the single argument "-worker" — the
	// cmd/l2farm convention. It is a test hook: tests set it to run
	// their own test binary as the worker; no program sets it.
	Command []string
	// Env entries are appended to the parent environment of every
	// spawned worker.
	Env []string
	// JobDeadline bounds one job's wall time on a worker. A worker
	// exceeding it is killed, which surfaces as a transport failure the
	// farm answers by requeueing the job. Zero means no deadline; a
	// negative deadline is an error.
	JobDeadline time.Duration
}

// ProcExecutor runs a farm's jobs on a pool of worker subprocesses, one
// job in flight per worker, shipping jobs and results over the wire
// protocol. The farm drives it: the workers spawn and handshake
// together when the farm starts, and shut down together, cleanly, when
// its last job is accounted for (every job stream ends, then each
// worker is reaped in id order), so starting and stopping a farm each
// take about one worker's boot or exit time whatever Procs is. A
// worker that dies or desynchronizes mid-run is retired, never
// respawned: the farm degrades to the surviving workers and requeues
// the lost job, and when no worker is left the job fails with
// ErrNoWorkers.
//
// A ProcExecutor runs one farm: Start refuses one that already ran, so
// build a new one for each farm.
//
// Each worker session starts with the farm's matrix variants and
// resolved target specs (wireFarm), so workers run every variant and
// target the in-process farm runs.
type ProcExecutor struct {
	pc  ProcConfig
	cfg Config

	notify func(WorkerEvent)

	mu      sync.Mutex
	workers []*procWorker
	live    int

	idle   chan *procWorker
	deadCh chan struct{}
}

// ErrNoWorkers is the transport failure a ProcExecutor returns when it
// has no live workers left. The farm fails the job immediately instead
// of requeueing: without workers a retry can only spin.
var ErrNoWorkers = errors.New("fleet: executor has no live workers")

// WorkerEvent is one ProcExecutor worker lifecycle change, surfaced in
// the farm's event stream (EventWorkerUp, EventWorkerDown) and journal.
type WorkerEvent struct {
	// Worker is the worker's id ("proc/0", ...).
	Worker string
	// Up discriminates spawn from retirement.
	Up bool
	// Err is why the worker went down; empty for a clean shutdown.
	Err string
}

// procWorker is one worker subprocess with its framed pipes.
type procWorker struct {
	id    string
	cmd   *exec.Cmd
	stdin io.Closer
	enc   *wire.Encoder
	dec   *wire.Decoder
	pid   int
	dead  bool
}

// NewProcExecutor returns an executor spawning workers per pc. Set it
// as the Config.Executor of one farm; the farm starts it, booting every
// worker at once, and closes it, retiring them all at once.
func NewProcExecutor(pc ProcConfig) *ProcExecutor {
	return &ProcExecutor{pc: pc}
}

// start spawns the worker pool for the farm of resolved config cfg and
// reports worker retirements to notify. A ProcExecutor that already ran
// is refused, and so is a negative Procs or JobDeadline, before any
// worker spawns. The workers spawn and handshake together, so the pool
// is up in about one worker's boot time whatever Procs is; it is built
// in id order once every worker has answered. A worker that fails to
// spawn or handshake fails start, so the farm surfaces that instead of
// limping from the off: the error joins every worker's failure.
func (e *ProcExecutor) start(cfg Config, notify func(WorkerEvent)) error {
	if e.deadCh != nil {
		return errors.New("fleet: a ProcExecutor runs one farm; build a new one for each")
	}
	if e.pc.Procs < 0 {
		return fmt.Errorf("fleet: negative ProcConfig.Procs %d", e.pc.Procs)
	}
	if e.pc.JobDeadline < 0 {
		return fmt.Errorf("fleet: negative ProcConfig.JobDeadline %v", e.pc.JobDeadline)
	}
	e.cfg = cfg
	procs := e.pc.Procs
	if procs == 0 {
		procs = cfg.Workers
	}
	argv := e.pc.Command
	if len(argv) == 0 {
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("fleet: resolve worker binary: %w", err)
		}
		argv = []string{self, "-worker"}
	}
	// The session message is the same for every worker: encode it once.
	fc, err := wire.Frame(wireFarm{
		Version:          wireVersion,
		MeasurementGrade: cfg.MeasurementGrade,
		CampaignRuns:     cfg.CampaignRuns,
		Variants:         cfg.Variants,
		Targets:          cfg.targets,
		Record:           cfg.Corpus != nil,
		Counters:         cfg.Counters != nil,
	})
	if err != nil {
		return fmt.Errorf("fleet: encode farm config: %w", err)
	}
	e.idle = make(chan *procWorker, procs)
	e.deadCh = make(chan struct{})
	spawned := make([]*procWorker, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := range spawned {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spawned[i], errs[i] = e.spawn(i, argv, fc)
		}()
	}
	wg.Wait()
	e.mu.Lock()
	for _, w := range spawned {
		if w != nil {
			e.workers = append(e.workers, w)
			e.live++
		}
	}
	e.mu.Unlock()
	if err := errors.Join(errs...); err != nil {
		// notify is not installed yet: the farm's event stream has no
		// reader before Start returns, so the workers that did spawn go
		// down unreported, as they never came up.
		e.close()
		return err
	}
	for _, w := range e.workers {
		e.idle <- w
	}
	e.notify = notify
	return nil
}

// workerIDs lists the workers start spawned, for the farm's up events.
func (e *ProcExecutor) workerIDs() []string {
	ids := make([]string, len(e.workers))
	for i, w := range e.workers {
		ids[i] = w.id
	}
	return ids
}

// spawn launches worker i from argv and completes the hello/config
// handshake, sending fc, the encoded wireFarm frame. Every error names
// the worker.
func (e *ProcExecutor) spawn(i int, argv []string, fc []byte) (*procWorker, error) {
	id := fmt.Sprintf("proc/%d", i)
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), e.pc.Env...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("fleet: worker %s stdin: %w", id, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("fleet: worker %s stdout: %w", id, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fleet: spawn worker %s: %w", id, err)
	}
	w := &procWorker{
		id:    id,
		cmd:   cmd,
		stdin: stdin,
		enc:   wire.NewEncoder(stdin),
		dec:   wire.NewDecoder(stdout),
	}
	fail := func(err error) (*procWorker, error) {
		cmd.Process.Kill()
		stdin.Close()
		cmd.Wait()
		return nil, err
	}
	var hello wireHello
	if err := w.dec.Decode(&hello); err != nil {
		return fail(fmt.Errorf("fleet: worker %s sent no hello: %w", w.id, err))
	}
	if hello.Version != wireVersion {
		return fail(fmt.Errorf("fleet: worker %s speaks wire version %d, this coordinator version %d", w.id, hello.Version, wireVersion))
	}
	w.pid = hello.PID
	if err := w.enc.WriteFrame(fc); err != nil {
		return fail(fmt.Errorf("fleet: worker %s rejected farm config: %w", w.id, err))
	}
	return w, nil
}

// execute ships the job to an idle worker and waits for its result. A
// transport failure retires the worker and is returned for the farm to
// requeue the job elsewhere.
func (e *ProcExecutor) execute(job Job) (JobResult, error) {
	w, err := e.acquire()
	if err != nil {
		return JobResult{}, err
	}
	res, err := e.runOn(w, job)
	if err != nil {
		e.retire(w, err.Error())
		return JobResult{}, fmt.Errorf("fleet: worker %s: %w", w.id, err)
	}
	e.idle <- w
	return res, nil
}

// acquire takes an idle worker, preferring one over noticing that the
// pool has died.
func (e *ProcExecutor) acquire() (*procWorker, error) {
	select {
	case w := <-e.idle:
		return w, nil
	default:
	}
	select {
	case w := <-e.idle:
		return w, nil
	case <-e.deadCh:
		return nil, ErrNoWorkers
	}
}

// runOn runs one job on one worker. Any error is a transport failure:
// the worker's pipes are no longer trustworthy.
func (e *ProcExecutor) runOn(w *procWorker, job Job) (JobResult, error) {
	wj := wireJob{Job: record.Job(job)}
	// The span's Started phase begins as the job hits the wire: the
	// worker echoes the offset back (a desync check) and adds its own
	// measured execution time, so the coordinator can split this job's
	// wall into transport vs execute.
	wj.StartedNs = sinceEpoch(e.cfg.epoch, time.Now())
	if err := w.enc.Encode(wj); err != nil {
		return JobResult{}, fmt.Errorf("send job: %w", err)
	}
	var timer *time.Timer
	if d := e.pc.JobDeadline; d > 0 {
		// Killing the process closes its pipes, which unblocks the
		// decode below — the deadline needs no second reader.
		proc := w.cmd.Process
		timer = time.AfterFunc(d, func() { proc.Kill() })
	}
	var wr wireResult
	err := w.dec.Decode(&wr)
	if timer != nil {
		timer.Stop()
	}
	if err != nil {
		return JobResult{}, fmt.Errorf("read result: %w", err)
	}
	if wr.Index != job.Index {
		return JobResult{}, fmt.Errorf("answered job %d while running job %d", wr.Index, job.Index)
	}
	if wr.StartedNs != wj.StartedNs {
		return JobResult{}, fmt.Errorf("answered span %v while running span %v of job %d", wr.StartedNs, wj.StartedNs, job.Index)
	}
	if wr.Counters != nil {
		// Fold the worker's per-job counters into the farm's, as
		// runJob's end-of-job merges do in process.
		e.cfg.Counters.Merge(*wr.Counters)
	}
	return fromWireResult(wr, job, w.id), nil
}

// markDead transitions one worker to dead; reports false if it already
// was. The last live worker's death closes deadCh: start runs once, so
// live falls to zero at most once.
func (e *ProcExecutor) markDead(w *procWorker) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if w.dead {
		return false
	}
	w.dead = true
	e.live--
	if e.live == 0 {
		close(e.deadCh)
	}
	return true
}

// retire takes a failed worker out of circulation: kill, reap, notify.
func (e *ProcExecutor) retire(w *procWorker, reason string) {
	if !e.markDead(w) {
		return
	}
	w.cmd.Process.Kill()
	w.stdin.Close()
	w.cmd.Wait()
	e.notify(WorkerEvent{Worker: w.id, Err: reason})
}

// KillOne kills the OS process of one live worker. It is a test hook,
// exported for the robustness tests that simulate a worker crash; no
// program calls it. Only the process dies here; the executor notices at
// the worker's next use, retires it then, and the farm requeues the
// affected job. Returns the victim's id, or "" when no worker is live.
func (e *ProcExecutor) KillOne() string {
	e.mu.Lock()
	var victim *procWorker
	for _, w := range e.workers {
		if !w.dead {
			victim = w
			break
		}
	}
	e.mu.Unlock()
	if victim == nil {
		return ""
	}
	victim.cmd.Process.Kill()
	return victim.id
}

// close shuts the pool down cleanly: every surviving worker's job
// stream ends (stdin closes) first, so the workers exit together; then
// each is reaped and its clean retirement reported, in id order. A
// second close finds every worker dead and does nothing.
func (e *ProcExecutor) close() {
	e.mu.Lock()
	workers := append([]*procWorker(nil), e.workers...)
	e.mu.Unlock()
	ending := workers[:0]
	for _, w := range workers {
		if e.markDead(w) {
			w.stdin.Close()
			ending = append(ending, w)
		}
	}
	for _, w := range ending {
		err := w.cmd.Wait()
		ev := WorkerEvent{Worker: w.id}
		if err != nil {
			ev.Err = err.Error()
		}
		if e.notify != nil {
			e.notify(ev)
		}
	}
}
