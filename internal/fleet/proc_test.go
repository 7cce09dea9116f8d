package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/core"
	"l2fuzz/internal/corpus"
	"l2fuzz/internal/fleet/record"
	"l2fuzz/internal/fleet/wire"
	"l2fuzz/internal/telemetry"
)

// workerEnv re-execs the test binary as a child instead of running
// tests: set to "1", TestMain speaks the wire protocol on stdin/stdout,
// giving the proc tests a worker command without building a separate
// binary; set to crashFarmRole, it runs crashFarm in its working
// directory.
const workerEnv = "L2FUZZ_FLEET_WORKER"

func TestMain(m *testing.M) {
	var err error
	switch os.Getenv(workerEnv) {
	case "1":
		err = RunWorker(os.Stdin, os.Stdout)
	case crashFarmRole:
		err = crashFarm(os.Stdout)
	default:
		os.Exit(m.Run())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// procConfig spawns workers by re-execing this test binary.
func procConfig(procs int) ProcConfig {
	return ProcConfig{
		Procs:   procs,
		Command: []string{os.Args[0]},
		Env:     []string{workerEnv + "=1"},
	}
}

// stripWorkers erases the worker attribution, the one JobResult field
// that legitimately differs between executors.
func stripWorkers(rep *Report) {
	for i := range rep.Jobs {
		rep.Jobs[i].Worker = ""
	}
}

// TestLocalVsProcDeterminism is the tentpole's acceptance criterion:
// the same matrix run through the in-process pool and through worker
// subprocesses must produce byte-identical rendered reports and deeply
// equal structures (wall times scrubbed, worker attribution stripped),
// at one worker and at four.
func TestLocalVsProcDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		local, err := Run(journalMatrix(workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(local.Findings) == 0 {
			t.Fatal("matrix produced no findings; the comparison would be vacuous")
		}
		pcfg := journalMatrix(workers)
		pcfg.Executor = NewProcExecutor(procConfig(workers))
		proc, err := Run(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range proc.Jobs {
			if got := proc.Jobs[i].Worker; len(got) < 5 || got[:5] != "proc/" {
				t.Fatalf("workers=%d: job %d attributed to %q, want a proc worker", workers, i, got)
			}
		}
		local.ScrubWall()
		proc.ScrubWall()
		if l, p := local.Render(), proc.Render(); l != p {
			t.Errorf("workers=%d: rendered reports differ:\nlocal:\n%s\nproc:\n%s", workers, l, p)
		}
		stripWorkers(local)
		stripWorkers(proc)
		if !reflect.DeepEqual(local, proc) {
			t.Errorf("workers=%d: proc report differs from local:\nlocal: %+v\nproc:  %+v", workers, local, proc)
		}
	}
}

// TestProcExecutorRunsOneFarm pins the executor's lifecycle: a proc
// farm reports one WorkerDown per WorkerUp and leaves every worker
// process exited and reaped, and a second farm on the same executor is
// refused before it spawns anything. A reused executor would spawn a
// fresh pool that nothing retires.
func TestProcExecutorRunsOneFarm(t *testing.T) {
	exec := NewProcExecutor(procConfig(2))
	cfg := Config{Devices: []string{"D2"}, Shards: 2, Workers: 2, MaxPacketsPerJob: 500, MeasurementGrade: true, Executor: exec}
	farm, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ups, downs := map[string]int{}, map[string]int{}
	for ev := range farm.Events() {
		switch ev.Type {
		case EventWorkerUp:
			ups[ev.Worker]++
		case EventWorkerDown:
			downs[ev.Worker]++
			if ev.WorkerErr != "" {
				t.Errorf("worker %s went down with %q, want a clean shutdown", ev.Worker, ev.WorkerErr)
			}
		}
	}
	if rep := farm.Wait(); rep.Completed != 2 {
		t.Fatalf("the farm completed %d of 2 jobs", rep.Completed)
	}
	if len(ups) != 2 || !reflect.DeepEqual(ups, downs) {
		t.Errorf("worker ups %v, downs %v: want one down per up for 2 workers", ups, downs)
	}
	for _, w := range exec.workers {
		if st := w.cmd.ProcessState; st == nil || !st.Exited() {
			t.Errorf("worker %s (pid %d) was not reaped after the farm", w.id, w.cmd.Process.Pid)
		}
	}

	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "runs one farm") {
		t.Fatalf("a second farm on a spent executor: got %v, want it refused", err)
	}
	if len(exec.workers) != 2 {
		t.Errorf("the refused farm spawned %d more workers", len(exec.workers)-2)
	}
}

// TestProcFarmRefusedMidSpawn fails one of two workers' spawns: Start
// returns the error, with no event reader needed, and reaps the worker
// that did come up. The workers spawn together, so either may be the
// one that comes up.
func TestProcFarmRefusedMidSpawn(t *testing.T) {
	pc := procConfig(2)
	// The first spawn to make the marker becomes a worker; the other
	// finds it and exits before its hello.
	pc.Command = []string{"sh", "-c", `mkdir "$SPAWN_MARK" 2>/dev/null && exec "$0"; exit 3`, os.Args[0]}
	pc.Env = append(pc.Env, "SPAWN_MARK="+filepath.Join(t.TempDir(), "spawned"))
	exec := NewProcExecutor(pc)
	errc := make(chan error, 1)
	go func() {
		_, err := Start(Config{Devices: []string{"D2"}, Workers: 2, MaxPacketsPerJob: 200, MeasurementGrade: true, Executor: exec})
		errc <- err
	}()
	var err error
	select {
	case err = <-errc:
	case <-time.After(time.Minute):
		t.Fatal("Start did not return after a worker failed to spawn")
	}
	if len(exec.workers) != 1 || exec.workers[0].cmd.ProcessState == nil {
		t.Fatalf("want the one spawned worker reaped, have %d workers", len(exec.workers))
	}
	up, refused := exec.workers[0].id, "proc/0"
	if up == refused {
		refused = "proc/1"
	}
	if err == nil || !strings.Contains(err.Error(), refused) || strings.Contains(err.Error(), up) {
		t.Fatalf("got %v, want an error naming worker %s and not %s", err, refused, up)
	}
}

// TestProcFarmRefusedEverySpawn fails every worker's spawn: Start
// returns an error naming each worker, the executor holds none, and
// every spawned process has been reaped.
func TestProcFarmRefusedEverySpawn(t *testing.T) {
	pids := t.TempDir()
	pc := procConfig(3)
	pc.Command = []string{"sh", "-c", `echo $$ >"$PIDS/$$"; exit 3`}
	pc.Env = append(pc.Env, "PIDS="+pids)
	exec := NewProcExecutor(pc)
	_, err := Start(Config{Devices: []string{"D2"}, Workers: 3, MaxPacketsPerJob: 200, MeasurementGrade: true, Executor: exec})
	if err == nil {
		t.Fatal("a farm whose every worker exits before its hello started")
	}
	for _, id := range []string{"proc/0", "proc/1", "proc/2"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("the error does not name worker %s: %v", id, err)
		}
	}
	if len(exec.workers) != 0 {
		t.Errorf("the refused farm holds %d workers", len(exec.workers))
	}
	entries, err := os.ReadDir(pids)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("%d of 3 worker processes ran", len(entries))
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		// A reaped child is no child of ours: ECHILD. An unreaped one
		// is reaped here (pid) or still running (0).
		if got, err := syscall.Wait4(pid, nil, syscall.WNOHANG, nil); err != syscall.ECHILD {
			t.Errorf("worker process %d was left unreaped (wait4: %d, %v)", pid, got, err)
		}
	}
}

// TestProcWorkersBootAndRetireTogether pins that a farm's workers boot
// together and retire together. Each of 4 workers takes a second to
// boot and a second to exit (a shell around the worker sleeps before
// and after it), so one by one a farm would take at least 4 s to start
// and 4 s to retire its pool; together each takes about 1 s. Under
// -race a worker also sleeps 1 s at exit (the race runtime's default
// atexit_sleep_ms), hence the 3 s bounds. Retirements are reported in
// id order.
func TestProcWorkersBootAndRetireTogether(t *testing.T) {
	pc := procConfig(4)
	pc.Command = []string{"sh", "-c", `sleep 1; "$0"; s=$?; sleep 1; exit $s`, os.Args[0]}
	cfg := Config{Devices: []string{"D2"}, Shards: 4, Workers: 4, MaxPacketsPerJob: 500, MeasurementGrade: true, Executor: NewProcExecutor(pc)}
	const bound = 3 * time.Second
	began := time.Now()
	farm, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot := time.Since(began)
	if boot > bound {
		t.Errorf("Start took %v to boot 4 workers, want at most %v", boot, bound)
	}
	var lastDone, lastDown time.Time
	var downs []string
	for ev := range farm.Events() {
		switch ev.Type {
		case EventJobDone:
			lastDone = ev.Time
		case EventWorkerDown:
			lastDown = ev.Time
			downs = append(downs, ev.Worker)
			if ev.WorkerErr != "" {
				t.Errorf("worker %s went down with %q, want a clean shutdown", ev.Worker, ev.WorkerErr)
			}
		}
	}
	if rep := farm.Wait(); rep.Completed != 4 {
		t.Fatalf("the farm completed %d of 4 jobs", rep.Completed)
	}
	retire := lastDown.Sub(lastDone)
	if retire > bound {
		t.Errorf("the workers took %v to retire after the last job, want at most %v", retire, bound)
	}
	t.Logf("4 workers booted in %v and retired in %v", boot, retire)
	if want := []string{"proc/0", "proc/1", "proc/2", "proc/3"}; !reflect.DeepEqual(downs, want) {
		t.Errorf("workers went down in order %v, want %v", downs, want)
	}
}

// TestProcFarmSurvivesWorkerKill kills one worker subprocess mid-run:
// the farm must requeue whatever the worker was holding, degrade to the
// survivor, and still account for every job with none failed. The
// event stream must carry both worker-up events and both worker-down
// events, the killed worker's with a reason.
func TestProcFarmSurvivesWorkerKill(t *testing.T) {
	cfg := journalMatrix(2)
	exec := NewProcExecutor(procConfig(2))
	cfg.Executor = exec
	farm, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ups, downs, dirtyDowns int
	killed := ""
	for ev := range farm.Events() {
		switch ev.Type {
		case EventWorkerUp:
			ups++
		case EventWorkerDown:
			downs++
			if ev.WorkerErr != "" {
				dirtyDowns++
			}
		case EventJobDone:
			if killed == "" {
				killed = exec.KillOne()
				if killed == "" {
					t.Fatal("KillOne found no live worker")
				}
			}
		}
	}
	rep := farm.Wait()
	total := len(buildJobs(mustDefaults(t, journalMatrix(2))))
	if len(rep.Jobs) != total || rep.Completed+rep.Failed != total {
		t.Fatalf("report accounts for %d jobs (%d completed, %d failed), matrix has %d",
			len(rep.Jobs), rep.Completed, rep.Failed, total)
	}
	if rep.Failed != 0 {
		t.Errorf("%d jobs failed; a single worker kill must not lose jobs", rep.Failed)
	}
	if ups != 2 || downs != 2 {
		t.Errorf("saw %d worker-up and %d worker-down events, want 2 and 2", ups, downs)
	}
	if dirtyDowns == 0 {
		t.Errorf("no worker-down event carried an error; the kill of %s went unreported", killed)
	}
}

func mustDefaults(t *testing.T, cfg Config) Config {
	t.Helper()
	out, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProcCountersFoldBackExactly pins the telemetry satellite: a farm
// run through subprocess workers must leave the coordinator's counter
// set exactly equal to an in-process run's — job lifecycle counts tally
// on the coordinator, traffic counts ship back in each result.
func TestProcCountersFoldBackExactly(t *testing.T) {
	lcfg := journalMatrix(2)
	lcfg.Counters = &telemetry.Counters{}
	if _, err := Run(lcfg); err != nil {
		t.Fatal(err)
	}
	pcfg := journalMatrix(2)
	pcfg.Counters = &telemetry.Counters{}
	pcfg.Executor = NewProcExecutor(procConfig(2))
	if _, err := Run(pcfg); err != nil {
		t.Fatal(err)
	}
	ls, ps := lcfg.Counters.Snapshot(), pcfg.Counters.Snapshot()
	if ls.Packets == 0 {
		t.Fatal("local run counted no packets; the comparison would be vacuous")
	}
	if !reflect.DeepEqual(ls, ps) {
		t.Errorf("proc counters differ from local:\nlocal: %+v\nproc:  %+v", ls, ps)
	}
}

// TestFarmCountersGolden pins every farm counter of a 64-job farm (D2
// and D5 × every kind × the baseline and a custom stateless variant × 2
// shards) in process and on worker subprocesses. Where a job's traffic
// reaches the counters may move; what the counters read may not.
func TestFarmCountersGolden(t *testing.T) {
	run := func(exec *ProcExecutor) telemetry.CounterSnapshot {
		cfg := Config{
			Devices: []string{"D2", "D5"},
			Kinds:   AllKinds(),
			Variants: []Variant{
				BaselineVariant(),
				{Name: "stateless", Ablation: core.Ablation{NoStateGuiding: true}},
			},
			Shards:           2,
			BaseSeed:         7,
			Workers:          2,
			MaxPacketsPerJob: 20_000,
			CampaignRuns:     2,
			Counters:         &telemetry.Counters{},
			Executor:         exec,
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.Counters.Snapshot()
	}
	golden := "testdata/counters.golden"
	for _, ex := range []struct {
		name string
		exec *ProcExecutor
	}{{"local", nil}, {"proc", NewProcExecutor(procConfig(2))}} {
		b, err := json.MarshalIndent(run(ex.exec), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got := string(b) + "\n"
		if *updateGolden && ex.exec == nil {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden (rerun with -update to regenerate): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s farm counters drifted from the golden:\ngot:\n%s\nwant:\n%s", ex.name, got, want)
		}
	}
}

// TestProcCorpusMatchesLocal sends repro traces across the wire: a
// corpus-backed proc farm must persist the same entries an in-process
// one does. The reports carry no trace (the store owns them), so the
// entries comparison is what compares the traces byte for byte.
func TestProcCorpusMatchesLocal(t *testing.T) {
	run := func(exec *ProcExecutor) (*Report, []corpus.Entry) {
		store, err := corpus.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := corpusMatrix(2, store)
		cfg.Executor = exec
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := store.Entries()
		if err != nil {
			t.Fatal(err)
		}
		return rep, entries
	}
	localRep, localEntries := run(nil)
	procRep, procEntries := run(NewProcExecutor(procConfig(2)))
	if len(localEntries) == 0 {
		t.Fatal("local run persisted no corpus entries; the comparison would be vacuous")
	}
	if !reflect.DeepEqual(localEntries, procEntries) {
		t.Errorf("proc corpus differs from local:\nlocal: %+v\nproc:  %+v", localEntries, procEntries)
	}
	localRep.ScrubWall()
	procRep.ScrubWall()
	stripWorkers(localRep)
	stripWorkers(procRep)
	if !reflect.DeepEqual(localRep, procRep) {
		t.Errorf("proc corpus report differs from local:\nlocal: %+v\nproc:  %+v", localRep, procRep)
	}
}

// TestProcJobDeadline drives every job into its deadline: the executor
// kills the worker holding it, retries burn through the remaining
// workers, and once none are left the farm fails the rest immediately
// instead of hanging.
func TestProcJobDeadline(t *testing.T) {
	cfg := journalMatrix(2)
	pc := procConfig(2)
	pc.JobDeadline = time.Millisecond
	cfg.Executor = NewProcExecutor(pc)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := len(buildJobs(mustDefaults(t, journalMatrix(2))))
	if len(rep.Jobs) != total || rep.Completed+rep.Failed != total {
		t.Fatalf("report accounts for %d jobs (%d completed, %d failed), matrix has %d",
			len(rep.Jobs), rep.Completed, rep.Failed, total)
	}
	if rep.Failed == 0 {
		t.Error("a 1ms deadline failed no jobs; the deadline path went unexercised")
	}
}

// TestLocalVsProcCustomTarget runs a custom target next to a catalog
// one on worker subprocesses: a worker looks each job's target up by
// name among the specs its session opened with, so the proc report
// must equal the local one, custom target included.
func TestLocalVsProcCustomTarget(t *testing.T) {
	cfg := func() Config {
		return Config{
			Devices:          []string{"D5"},
			CustomDevices:    []device.Spec{customTarget()},
			Kinds:            []Kind{KindL2Fuzz, KindRFCOMM},
			BaseSeed:         7,
			Workers:          2,
			MaxPacketsPerJob: 20_000,
		}
	}
	local, err := Run(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(local.FindingsOn("iot-cam")) == 0 {
		t.Fatal("the custom target produced no findings; the comparison would be vacuous")
	}
	pcfg := cfg()
	pcfg.Executor = NewProcExecutor(procConfig(2))
	proc, err := Run(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if proc.Failed != 0 {
		t.Fatalf("%d proc jobs failed: %+v", proc.Failed, proc.Jobs)
	}
	local.ScrubWall()
	proc.ScrubWall()
	if l, p := local.Render(), proc.Render(); l != p {
		t.Errorf("rendered reports differ:\nlocal:\n%s\nproc:\n%s", l, p)
	}
	stripWorkers(local)
	stripWorkers(proc)
	if !reflect.DeepEqual(local, proc) {
		t.Errorf("proc report differs from local:\nlocal: %+v\nproc:  %+v", local, proc)
	}
}

// TestWorkerFailsJobOfUnknownTarget pins what a worker does with a job
// naming a target its session does not hold: that job fails, naming
// the target, and the session goes on to run the next job.
func TestWorkerFailsJobOfUnknownTarget(t *testing.T) {
	cfg, err := Config{Devices: []string{"D2"}, MaxPacketsPerJob: 200}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	job := record.Job(buildJobs(cfg)[0])
	stray := job
	stray.Device = "D9"
	var in, out bytes.Buffer
	enc := wire.NewEncoder(&in)
	for _, msg := range []any{
		wireFarm{Version: wireVersion, CampaignRuns: cfg.CampaignRuns, Variants: cfg.Variants, Targets: cfg.targets},
		wireJob{Job: stray},
		wireJob{Job: job},
	} {
		if err := enc.Encode(msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := RunWorker(&in, &out); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(&out)
	var hello wireHello
	var unknown, known wireResult
	for _, msg := range []any{&hello, &unknown, &known} {
		if err := dec.Decode(msg); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(unknown.Err, `"D9"`) {
		t.Errorf("job of an unknown target: err %q, want one naming \"D9\"", unknown.Err)
	}
	if known.Err != "" || known.PacketsSent == 0 {
		t.Errorf("the next job did not run: err %q, %d packets", known.Err, known.PacketsSent)
	}
}

// TestProcConfigSettings pins the settings rule for ProcConfig: zero
// means the documented default, and a negative Procs or JobDeadline
// fails Start, naming the field, before any worker spawns. A zero case
// spawns a single worker.
func TestProcConfigSettings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		set     func(*ProcConfig)
		wantErr string
	}{
		{"zero Procs", func(pc *ProcConfig) { pc.Procs = 0 }, ""},
		{"negative Procs", func(pc *ProcConfig) { pc.Procs = -3 }, "Procs"},
		{"zero JobDeadline", func(pc *ProcConfig) { pc.JobDeadline = 0 }, ""},
		{"negative JobDeadline", func(pc *ProcConfig) { pc.JobDeadline = -time.Second }, "JobDeadline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pc := procConfig(1)
			tc.set(&pc)
			exec := NewProcExecutor(pc)
			rep, err := Run(Config{Devices: []string{"D2"}, Workers: 1, MaxPacketsPerJob: 200, MeasurementGrade: true, Executor: exec})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got %v, want an error naming %s", err, tc.wantErr)
				}
				if len(exec.workers) != 0 {
					t.Fatalf("%d workers spawned before the setting was refused", len(exec.workers))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != 1 || rep.Jobs[0].Worker != "proc/0" {
				t.Fatalf("the farm did not run its job on one worker: %+v", rep.Jobs)
			}
		})
	}
}
