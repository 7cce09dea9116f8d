// Command l2farm runs a parallel fuzzing farm over the simulated
// Bluetooth testbed: a job matrix of catalog devices × fuzzer kinds ×
// configuration variants × seed shards executed on a bounded worker
// pool.
//
// The farm is consumed through its event stream (StartFleet): every
// JobDone event becomes a progress line, and with -stream every
// NewFinding event is printed the moment the farm first sees that
// (state, PSM, error-class) signature — the mode meant for very long
// unattended farms, where waiting for the end-of-run report is not an
// option. The final farm report is rendered either way.
//
// The -ablations flag adds the variant axis: a comma-separated subset
// of the paper's §IV-D ablation grid (baseline, no-state-guiding,
// all-fields, no-garbage) or "all" for the whole grid, every variant
// run for every (device, fuzzer) cell and broken out in the report's
// per-variant table. The -budget flag (repeatable) overrides the
// per-job packet budget for a single target, spending the farm's time
// where the devices need it.
//
// The -corpus flag makes the farm's findings durable: every new
// finding's recorded repro trace is written into the given corpus
// directory as it streams in, and findings whose signature the corpus
// already holds are reported as "(known)" instead of announced as new —
// so repeated farms over one corpus only ever surface genuinely new
// crashes. Stored findings are replayed, minimized and triaged with the
// companion l2repro command.
//
// The -device-file flag (repeatable) opens the target axis beyond the
// Table V catalog: each file holds one JSON target spec — name, BD_ADDR,
// stack profile, port map, optional named defects and RFCOMM services
// (see l2fuzz.ParseDeviceSpec for the format) — and the decoded spec is
// fuzzed next to the catalog devices, keyed everywhere by its name
// (budgets, progress lines, per-device report sections). Malformed
// files are rejected with the line and column of the error. Use
// "-devices none" with -device-file to farm custom targets alone.
//
// The -exec flag selects the job execution transport. The default,
// "local", runs jobs in-process on the worker pool. "-exec proc" runs
// them in worker subprocesses instead (each an "l2farm -worker"
// re-execution of this binary, speaking length-prefixed JSON over its
// stdin/stdout): a crashed worker takes only the job it was holding,
// which the farm requeues on a surviving worker — both transports
// produce identical reports. -procs sizes the subprocess pool
// independently of -workers, and -job-deadline kills any worker that
// sits on one job past the given duration (the job is retried). The
// -worker flag itself is the subprocess entry point, not for
// interactive use.
//
// The farm is observable while it runs. -telemetry ADDR serves a live
// introspection endpoint: /metrics (Prometheus text format counters:
// frames, packets, mutations, findings, job lifecycle), /debug/vars
// (expvar), /snapshot (the mid-run farm report as JSON; null until the
// farm has started) and /debug/pprof. The endpoint listens before the
// farm starts, so an address it cannot listen on refuses the run before
// any worker spawns. -journal DIR records the run as a structured JSONL
// journal in a fresh DIR/run-<timestamp>-<pid>/journal.jsonl: the farm
// configuration, every job start, job result (with its trace span) and
// finding as timestamped records, plus a counter sample every
// -journal-interval (1s by default; the chosen period is recorded in
// the journal header). A journal replays into the exact live report
// with l2fuzz.ReplayFleetJournal, and renders into the paper's
// coverage-over-time figures with the companion l2journal command.
//
// Usage:
//
//	l2farm [-devices all|none|D1,D2,...] [-fuzzers l2fuzz,defensics,bfuzz,bss,rfcomm,campaign,sdp,sm]
//	       [-ablations all|baseline,no-state-guiding,all-fields,no-garbage]
//	       [-device-file spec.json]... [-shards 1] [-workers 0] [-seed 1]
//	       [-max-packets 250000] [-budget D3=500000]... [-corpus dir]
//	       [-exec local|proc] [-procs 0] [-job-deadline 0]
//	       [-telemetry addr] [-journal dir] [-journal-interval 1s]
//	       [-measure] [-quiet] [-stream] [-dump]
//
// Examples:
//
//	l2farm                                   # all eight devices × L2Fuzz
//	l2farm -fuzzers l2fuzz,campaign -shards 4
//	l2farm -devices D2,D5 -fuzzers all -measure
//	l2farm -fuzzers all -shards 8 -stream   # findings as they land
//	l2farm -ablations all -measure          # the §IV-D grid, farm-wide
//	l2farm -budget D4=100000 -budget D6=100000
//	l2farm -device-file toaster.json -budget smart-toaster=500000
//	l2farm -devices none -device-file a.json -device-file b.json
//	l2farm -corpus findings/ -fuzzers all   # durable, de-duplicated across runs
//	l2farm -exec proc -fuzzers all          # process-isolated workers
//	l2farm -telemetry localhost:6060        # curl /metrics, /snapshot, /debug/pprof
//	l2farm -journal runs/ -quiet            # recorded, replayable run
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"l2fuzz"
)

// kindAliases maps the CLI's lower-case fuzzer names to farm kinds,
// and allKindNames is the -fuzzers all expansion in report order; both
// derive from the library's kind list so new kinds appear here
// automatically.
var (
	kindAliases  = make(map[string]l2fuzz.FleetKind)
	allKindNames []string
)

func init() {
	for _, kind := range l2fuzz.FleetKinds() {
		name := strings.ToLower(string(kind))
		kindAliases[name] = kind
		allKindNames = append(allKindNames, name)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "l2farm:", err)
		os.Exit(1)
	}
}

// splitList splits one comma-separated flag value: elements are
// whitespace-trimmed, empty elements (trailing commas, doubled commas)
// are dropped, and duplicates are rejected with the flag's name so the
// error points at the right part of the command line. A value with no
// elements at all is rejected too — an emptied-out restriction must not
// silently fall back to the library default.
func splitList(flagName, val string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	for _, el := range strings.Split(val, ",") {
		el = strings.TrimSpace(el)
		if el == "" {
			continue
		}
		if seen[el] {
			return nil, fmt.Errorf("-%s: duplicate %q", flagName, el)
		}
		seen[el] = true
		out = append(out, el)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s: empty list %q", flagName, val)
	}
	return out, nil
}

// budgetFlag collects repeatable -budget DEVICE=PACKETS overrides.
type budgetFlag map[string]int

// String renders the overrides sorted by target name: map iteration is
// random, and this string reaches -help defaults and error echoes.
func (b budgetFlag) String() string {
	ids := make([]string, 0, len(b))
	for id := range b {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%s=%d", id, b[id])
	}
	return strings.Join(parts, ",")
}

// specFileFlag collects repeatable -device-file PATH custom targets.
type specFileFlag struct {
	specs []l2fuzz.DeviceSpec
	paths []string
}

func (f *specFileFlag) String() string { return strings.Join(f.paths, ",") }

func (f *specFileFlag) Set(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := l2fuzz.ParseDeviceSpec(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	f.specs = append(f.specs, spec)
	f.paths = append(f.paths, path)
	return nil
}

func (b budgetFlag) Set(s string) error {
	id, val, ok := strings.Cut(s, "=")
	id = strings.TrimSpace(id)
	if !ok || id == "" {
		return fmt.Errorf("want DEVICE=PACKETS, e.g. -budget D3=500000")
	}
	n, err := strconv.Atoi(strings.TrimSpace(val))
	if err != nil {
		return fmt.Errorf("bad packet count %q in -budget %s", val, s)
	}
	if _, dup := b[id]; dup {
		return fmt.Errorf("-budget: duplicate budget for %q", id)
	}
	b[id] = n
	return nil
}

func run() error {
	budgets := make(budgetFlag)
	var specFiles specFileFlag
	var (
		devices      = flag.String("devices", "all", "comma-separated catalog IDs, \"all\" for the Table V testbed, or \"none\" to farm -device-file targets alone")
		fuzzers      = flag.String("fuzzers", "l2fuzz", "comma-separated fuzzer kinds, or \"all\"")
		ablations    = flag.String("ablations", "", "comma-separated §IV-D variants (baseline, no-state-guiding, all-fields, no-garbage), or \"all\" for the whole grid")
		shards       = flag.Int("shards", 1, "seed shards per (device, fuzzer, variant) cell")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		seed         = flag.Int64("seed", 1, "farm base seed")
		maxPackets   = flag.Int("max-packets", 0, "per-job packet budget (0 = library default)")
		corpusDir    = flag.String("corpus", "", "persist findings with repro traces into this corpus directory; known signatures are reported as such (replay them with l2repro)")
		telemetry    = flag.String("telemetry", "", "serve live metrics on this address (/metrics, /debug/vars, /snapshot, /debug/pprof)")
		journalDir   = flag.String("journal", "", "record the run as a JSONL journal in a fresh run directory under this path")
		journalEvery = flag.Duration("journal-interval", time.Second, "counter-sample period of the -journal recording (recorded in the journal header)")
		execMode     = flag.String("exec", "local", "job execution transport: \"local\" (in-process pool) or \"proc\" (worker subprocesses)")
		procs        = flag.Int("procs", 0, "worker subprocess count for -exec proc (0 = worker pool size)")
		jobDeadline  = flag.Duration("job-deadline", 0, "kill a -exec proc worker holding one job past this duration and retry the job (0 = no deadline)")
		workerMode   = flag.Bool("worker", false, "run as a farm worker subprocess on stdin/stdout (spawned by -exec proc; not for interactive use)")

		measure = flag.Bool("measure", false, "measurement-grade targets: defects disabled, metrics only")
		quiet   = flag.Bool("quiet", false, "suppress per-job progress lines")
		stream  = flag.Bool("stream", false, "print de-duplicated findings as they land")
		dump    = flag.Bool("dump", false, "print the first crash artefact of every finding")
	)
	flag.Var(budgets, "budget", "per-target packet budget as TARGET=PACKETS (repeatable)")
	flag.Var(&specFiles, "device-file", "JSON target spec fuzzed alongside the catalog devices (repeatable)")
	flag.Parse()

	if *workerMode {
		return l2fuzz.RunFleetWorker(os.Stdin, os.Stdout)
	}

	cfg := l2fuzz.FleetConfig{
		CustomDevices:    specFiles.specs,
		Shards:           *shards,
		BaseSeed:         *seed,
		Workers:          *workers,
		MaxPacketsPerJob: *maxPackets,
		MeasurementGrade: *measure,
	}
	if len(budgets) > 0 {
		cfg.Budgets = budgets
	}
	if *corpusDir != "" {
		store, err := l2fuzz.OpenCorpus(*corpusDir)
		if err != nil {
			return err
		}
		cfg.Corpus = store
	}
	if *telemetry != "" || *journalDir != "" {
		cfg.Counters = &l2fuzz.TelemetryCounters{}
	}
	if *journalDir == "" && *journalEvery != time.Second {
		return fmt.Errorf("-journal-interval requires -journal")
	}
	if *journalDir != "" && *journalEvery <= 0 {
		return fmt.Errorf("-journal-interval must be positive, got %v", *journalEvery)
	}
	switch *devices {
	case "all":
		// Leave Devices empty only when no custom specs are given (the
		// library then defaults to the whole testbed); with custom specs
		// present, "all" must still mean the full catalog.
		if len(cfg.CustomDevices) > 0 {
			cfg.Devices = l2fuzz.CatalogDeviceIDs()
		}
	case "none":
		if len(cfg.CustomDevices) == 0 {
			return fmt.Errorf("-devices none requires at least one -device-file")
		}
	default:
		ids, err := splitList("devices", *devices)
		if err != nil {
			return err
		}
		cfg.Devices = ids
	}
	names := allKindNames
	if *fuzzers != "all" {
		var err error
		names, err = splitList("fuzzers", strings.ToLower(*fuzzers))
		if err != nil {
			return err
		}
	}
	for _, name := range names {
		kind, ok := kindAliases[name]
		if !ok {
			return fmt.Errorf("unknown fuzzer %q (have %s)", name, strings.Join(allKindNames, ", "))
		}
		cfg.Kinds = append(cfg.Kinds, kind)
	}
	switch *execMode {
	case "local":
		if *procs != 0 || *jobDeadline != 0 {
			return fmt.Errorf("-procs and -job-deadline require -exec proc")
		}
	case "proc":
		cfg.Executor = l2fuzz.NewFleetProcExecutor(l2fuzz.FleetProcConfig{
			Procs:       *procs,
			JobDeadline: *jobDeadline,
		})
	default:
		return fmt.Errorf("unknown -exec %q (have local, proc)", *execMode)
	}
	if *ablations != "" {
		variantNames, err := splitList("ablations", strings.ToLower(*ablations))
		if err != nil {
			return err
		}
		if len(variantNames) == 1 && variantNames[0] == "all" {
			cfg.Variants = l2fuzz.FleetAblationVariants()
		} else {
			for _, name := range variantNames {
				v, err := l2fuzz.FleetVariantByName(name)
				if err != nil {
					return err
				}
				cfg.Variants = append(cfg.Variants, v)
			}
		}
	}

	var runDir string
	if *journalDir != "" {
		runDir = filepath.Join(*journalDir,
			fmt.Sprintf("run-%s-%d", time.Now().UTC().Format("20060102-150405"), os.Getpid()))
		journal, err := l2fuzz.OpenTelemetryJournal(runDir)
		if err != nil {
			return err
		}
		cfg.Journal = journal
		// The header records the sampler period so an analyzer can label
		// the sampled series' time axis honestly.
		cfg.SampleInterval = *journalEvery
	}
	// A refused farm leaves no run directory behind: an empty journal
	// would shadow the last complete run in l2journal.
	refuse := func(err error) error {
		if cfg.Journal != nil {
			cfg.Journal.Close()
			os.RemoveAll(runDir)
		}
		return err
	}
	// The endpoint listens before the farm starts, so a bad address
	// refuses the farm before any worker spawns; /snapshot serves null
	// until the farm is up.
	var live atomic.Pointer[l2fuzz.FleetFarm]
	if *telemetry != "" {
		srv, err := l2fuzz.ServeTelemetry(*telemetry, l2fuzz.TelemetryServerConfig{
			Counters: cfg.Counters,
			Snapshot: func() any {
				if farm := live.Load(); farm != nil {
					return farm.Snapshot()
				}
				return nil
			},
		})
		if err != nil {
			return refuse(err)
		}
		defer srv.Close()
		fmt.Fprintln(os.Stderr, "l2farm: telemetry on http://"+srv.Addr)
	}
	farm, err := l2fuzz.StartFleet(cfg)
	if err != nil {
		return refuse(err)
	}
	live.Store(farm)
	if cfg.Journal != nil {
		fmt.Fprintln(os.Stderr, "l2farm: journaling to", filepath.Join(runDir, l2fuzz.TelemetryJournalFile))
	}
	stopSampler := func() {}
	if cfg.Journal != nil {
		stopSampler = cfg.Journal.StartSampler(cfg.Counters, cfg.SampleInterval)
	}
	// Progress-line job column: 34 runes fits the longest catalog job
	// name ("D8×Defensics[no-state-guiding]/99" is 33); custom targets
	// widen it by however much their name exceeds a catalog ID's 2.
	jobW := 34
	for _, spec := range cfg.CustomDevices {
		if w := len(spec.Name) + 32; w > jobW {
			jobW = w
		}
	}
	printed := false
	for ev := range farm.Events() {
		switch ev.Type {
		case l2fuzz.FleetJobDone:
			if *quiet {
				continue
			}
			res := ev.Result
			status := fmt.Sprintf("%d findings", len(res.Findings))
			switch {
			case res.Err != nil:
				status = "FAILED: " + res.Err.Error()
			case len(res.Findings) == 0 && res.Crashed:
				status = "crashed (undetected)"
			case len(res.Findings) == 0:
				status = "clean"
			}
			fmt.Printf("[%*d/%d] %-*s %9d pkts  %12v sim  %s\n",
				len(fmt.Sprint(ev.Total)), ev.Done, ev.Total, jobW, res.Job.String(),
				res.PacketsSent, res.Elapsed.Round(1e6), status)
			printed = true
		case l2fuzz.FleetWorkerDown:
			if ev.WorkerErr != "" {
				fmt.Fprintf(os.Stderr, "l2farm: worker %s died: %s (job requeued)\n", ev.Worker, ev.WorkerErr)
			}
		case l2fuzz.FleetNewFinding:
			if !*stream {
				continue
			}
			f := ev.Finding
			fmt.Printf("NEW %s (%s) via %s on %s  [%d/%d jobs in]\n",
				f.Signature, f.Finding.Error.Severity(), ev.Job.Kind, ev.Job.Device,
				ev.Done, ev.Total)
			printed = true
		}
	}
	report := farm.Wait()
	stopSampler()
	if cfg.Journal != nil {
		if err := cfg.Journal.Close(); err != nil {
			// The farm itself succeeded; a hole in the recording is worth
			// a warning, not a failed run.
			fmt.Fprintln(os.Stderr, "l2farm: journal:", err)
		}
	}

	if printed {
		fmt.Println()
	}
	fmt.Print(report.Render())
	if *dump {
		for i, f := range report.Findings {
			if f.Dump == "" {
				continue
			}
			fmt.Printf("\ncrash artefact for finding %d (%s):\n%s", i+1, f.Signature, f.Dump)
		}
	}
	if report.Failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", report.Failed, len(report.Jobs))
	}
	return nil
}
