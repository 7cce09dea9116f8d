// Package l2fuzz is the public API of the L2Fuzz reproduction: a stateful
// fuzzer for the Bluetooth BR/EDR L2CAP layer (Park, Nkuba, Woo, Lee —
// "L2Fuzz: Discovering Bluetooth L2CAP Vulnerabilities Using Stateful
// Fuzz Testing", DSN 2022), together with the simulated Bluetooth testbed
// it runs against.
//
// A Simulation owns a deterministic in-memory radio medium, a tester
// endpoint (the analogue of the paper's Ubuntu machine with a Class-1
// dongle), a Wireshark-style trace sniffer, and any number of simulated
// target devices. The eight devices of the paper's Table V are available
// by catalog ID ("D1" through "D8"); custom devices can be built from
// vendor stack profiles.
//
// Basic use:
//
//	sim, err := l2fuzz.NewSimulation()
//	...
//	target, err := sim.AddCatalogDevice("D2") // Pixel 3, defects armed
//	...
//	report, err := sim.RunL2Fuzz(target, l2fuzz.FuzzConfig{Seed: 1})
//	if report.Found {
//	    fmt.Println(report.Finding.Error, "in", report.Finding.State)
//	    fmt.Println(sim.CrashDump(target)) // the Android tombstone
//	}
//
// The four comparison fuzzers of the paper's evaluation (L2Fuzz,
// Defensics, BFuzz, BSS) can all be run through RunBaseline, and the
// sniffer's Metrics reproduce the paper's mutation-efficiency and
// state-coverage measurements.
//
// Beyond one simulation at a time, RunFleet orchestrates a parallel
// fuzzing farm: a job matrix of targets × fuzzer kinds × configuration
// variants × seed shards executed on a bounded worker pool, with
// findings de-duplicated across devices and trace metrics merged into
// one report. The target axis is programmable: catalog IDs and custom
// DeviceSpec values (FleetDeviceSpec, ParseDeviceSpec) fuzz side by
// side, and the variant axis reproduces the paper's §IV-D ablation
// grid in one run — see FleetAblationVariants:
//
//	report, err := l2fuzz.RunFleet(l2fuzz.FleetConfig{
//	    Kinds:   []l2fuzz.FleetKind{l2fuzz.FleetL2Fuzz, l2fuzz.FleetCampaign},
//	    Shards:  4,
//	    Workers: 8,
//	})
//	...
//	fmt.Println(report.Render()) // per-device/per-fuzzer farm report
//
// For long unattended farms, StartFleet exposes the streaming core
// underneath RunFleet: an event stream of job starts, job completions
// and findings as they land, plus live mid-run report snapshots:
//
//	farm, err := l2fuzz.StartFleet(cfg)
//	...
//	for ev := range farm.Events() {
//	    if ev.Type == l2fuzz.FleetNewFinding {
//	        fmt.Println("found:", ev.Finding.Signature)
//	    }
//	}
//	report := farm.Wait()
//
// Findings become durable, reproducible artefacts through a corpus:
// OpenCorpus plus FleetConfig.Corpus persist every new finding's
// recorded repro trace as it streams in, a second farm over the same
// store reports known signatures as Known instead of new, and
// ReplayCorpusEntry / MinimizeCorpusEntry re-drive and delta-debug a
// stored finding against a fresh rig, feeding the reproduced crash
// artefact to triage (cmd/l2repro is the CLI form). The store is the
// only place a trace lives on: the farm's report and events carry
// none, so read a finding's trace back from the store by its key:
//
//	store, err := l2fuzz.OpenCorpus("findings/")
//	...
//	report, err := l2fuzz.RunFleet(l2fuzz.FleetConfig{Corpus: store})
//	...
//	entry, err := store.GetKey(l2fuzz.CorpusKey(report.Findings[0].Signature))
//	...
//	res, err := l2fuzz.ReplayCorpusEntry(entry, l2fuzz.CorpusReplayConfig{})
//	fmt.Println(res.Reproduced, res.RootCause.Render())
//
// Running farms are observable. FleetConfig.Counters collects atomic
// farm counters (a job's traffic lands once, at job end),
// FleetConfig.Journal records every farm event (plus periodic counter
// samples) as a timestamped JSONL run journal that ReplayFleetJournal
// can fold back into the exact live report, and ServeTelemetry exposes
// counters, Prometheus-format metrics, live report snapshots and pprof
// over HTTP while the farm runs (cmd/l2farm's -telemetry and -journal
// flags are the CLI form):
//
//	ctr := &l2fuzz.TelemetryCounters{}
//	journal, err := l2fuzz.OpenTelemetryJournal("runs/run-1")
//	...
//	farm, err := l2fuzz.StartFleet(l2fuzz.FleetConfig{Counters: ctr, Journal: journal})
//	...
//	srv, err := l2fuzz.ServeTelemetry("localhost:6060", l2fuzz.TelemetryServerConfig{
//	    Counters: ctr,
//	    Snapshot: func() any { return farm.Snapshot() },
//	})
//
// A recorded journal is also the input to post-hoc analytics: every
// record carries a monotonic offset from the farm's start and every
// job result a FleetSpan trace, and cmd/l2journal renders the paper's
// coverage-over-time figures, latency breakdowns and per-worker
// utilization from journal.jsonl alone.
package l2fuzz

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/rfcomm"
	"l2fuzz/internal/campaign"
	"l2fuzz/internal/core"
	"l2fuzz/internal/corpus"
	"l2fuzz/internal/fleet"
	"l2fuzz/internal/fuzzers"
	"l2fuzz/internal/fuzzers/bfuzz"
	"l2fuzz/internal/fuzzers/bss"
	"l2fuzz/internal/fuzzers/defensics"
	"l2fuzz/internal/metrics"
	"l2fuzz/internal/rfcommfuzz"
	"l2fuzz/internal/sdpfuzz"
	"l2fuzz/internal/smfuzz"
	"l2fuzz/internal/telemetry"
	"l2fuzz/internal/testbed"
	"l2fuzz/internal/triage"
)

// Re-exported result and configuration types. These are aliases, so the
// full method sets of the underlying types are available.
type (
	// Report is the outcome of an L2Fuzz run (scan result, finding,
	// elapsed simulated time, packet counts, tested states).
	Report = core.Report
	// Finding is one detected vulnerability.
	Finding = core.Finding
	// ScanReport is the target-scanning phase outcome.
	ScanReport = core.ScanReport
	// Ablation names the design choices an L2Fuzz run switches off for
	// the paper's §IV-D study: state guiding, core-field-only mutation
	// and the garbage tail. The zero value runs L2Fuzz as published.
	// FuzzConfig embeds it, and a FleetVariant carries one.
	Ablation = core.Ablation
	// ErrorClass is the paper's connection-error taxonomy.
	ErrorClass = core.ErrorClass
	// Metrics is a trace-derived measurement summary: MP ratio, PR
	// ratio, mutation efficiency, packets/second and state coverage.
	Metrics = metrics.Summary
	// DeviceProfile is a vendor host-stack behaviour profile.
	DeviceProfile = device.Profile
	// DeviceSpec is a first-class fuzzing target: a name, a full device
	// configuration and optional expected-defect metadata. The catalog
	// is eight predefined specs (CatalogDeviceSpec); custom specs open
	// the target axis to devices the paper never named — build them
	// with FleetDeviceSpec, decode them with ParseDeviceSpec, run them
	// through Simulation.AddDeviceSpec or FleetConfig.CustomDevices.
	DeviceSpec = device.Spec
	// DeviceVulnSpec is one injected implementation defect a custom
	// target's profile may carry.
	DeviceVulnSpec = device.VulnSpec
	// ServicePort is one exposed L2CAP service.
	ServicePort = device.ServicePort
	// BaselineResult is the outcome of a baseline fuzzer run.
	BaselineResult = fuzzers.Result
	// RFCOMMService is one RFCOMM server channel on a custom device.
	RFCOMMService = rfcomm.Service
	// RFCOMMReport is the outcome of the §V extension fuzzer.
	RFCOMMReport = rfcommfuzz.Report
	// SDPFuzzReport is the outcome of the SDP malformation engine.
	SDPFuzzReport = sdpfuzz.Report
	// SMFuzzReport is the outcome of the state-machine walk engine.
	SMFuzzReport = smfuzz.Report
	// CampaignConfig parameterises long-term fuzzing with automatic
	// device resets.
	CampaignConfig = campaign.Config
	// CampaignReport is the aggregated outcome of a campaign.
	CampaignReport = campaign.Report
	// RootCause is a structured crash root-cause analysis.
	RootCause = triage.Report
	// FleetConfig describes a fuzzing-farm job matrix (targets —
	// catalog IDs plus custom DeviceSpecs — × fuzzer kinds × variants ×
	// seed shards) and its worker pool.
	FleetConfig = fleet.Config
	// FleetReport is the aggregated farm outcome: de-duplicated
	// findings, per-device/per-fuzzer breakdowns, merged metrics.
	FleetReport = fleet.Report
	// FleetJob is one cell×shard of a farm matrix.
	FleetJob = fleet.Job
	// FleetJobResult is the outcome of one farm job.
	FleetJobResult = fleet.JobResult
	// FleetSpan traces one farm job through the scheduling phases —
	// queued, dispatched, started, finished, plus the worker-measured
	// execution time — as monotonic offsets from the farm's start.
	// Journals persist it per job result; `l2journal latency` and
	// `l2journal workers` render the derived figures.
	FleetSpan = fleet.Span
	// FleetFinding is one de-duplicated farm finding with provenance.
	FleetFinding = fleet.FindingRecord
	// FleetKind selects the fuzzer a farm job runs.
	FleetKind = fleet.Kind
	// FleetVariant is one point on a farm matrix's variant axis: a name
	// plus the Ablation that L2Fuzz and campaign jobs run under (the
	// paper's §IV-D ablations, or any custom combination). Variants are
	// plain data, so every executor runs them alike.
	FleetVariant = fleet.Variant
	// FleetVariantStats is a per-variant report row: job counters plus
	// the variant's own merged trace metrics.
	FleetVariantStats = fleet.VariantStats
	// FleetFarm is a running farm: an event stream plus live report
	// snapshots.
	FleetFarm = fleet.Farm
	// FleetEvent is one entry of a farm's progress stream.
	FleetEvent = fleet.Event
	// FleetEventType discriminates farm events.
	FleetEventType = fleet.EventType
	// FleetAggregator folds farm job results incrementally and
	// snapshots full reports at any moment.
	FleetAggregator = fleet.Aggregator
	// FleetCorpusStats summarises a corpus-backed farm's store
	// interaction (new traces saved, known signatures recognised).
	FleetCorpusStats = fleet.CorpusStats
	// FleetProcExecutor runs one farm's jobs in worker subprocesses
	// speaking a length-prefixed JSON protocol over their stdin/stdout;
	// a farm whose FleetConfig.Executor is nil runs them in process,
	// with an identical report. A crashed or deadline-blown worker is
	// retired and its job requeued; the farm degrades to the surviving
	// workers. Build a new one for each farm: a farm refuses one that
	// already ran.
	FleetProcExecutor = fleet.ProcExecutor
	// FleetProcConfig parameterises a FleetProcExecutor: worker count,
	// the worker command (defaults to re-executing this binary with
	// "-worker"), extra environment and an optional per-job deadline.
	FleetProcConfig = fleet.ProcConfig
	// FindingSignature is the shared (state, port, error-class) triple
	// findings de-duplicate by — within a campaign, across a farm, and
	// across runs in a corpus store.
	FindingSignature = core.Signature
	// CorpusStore persists findings with their recorded repro traces as
	// JSON files in a directory, keyed by signature. Wire one into a
	// farm via FleetConfig.Corpus; open one with OpenCorpus.
	CorpusStore = corpus.Store
	// CorpusEntry is one persisted finding: signature, fuzzer kind,
	// the finding itself and its repro trace.
	CorpusEntry = corpus.Entry
	// CorpusTrace is the recorded repro recipe of a finding: seed,
	// target name, state and port under test, and the ordered client
	// operation sequence that drove a fresh rig into the crash.
	CorpusTrace = corpus.Trace
	// CorpusOp is one recorded client operation (page, link drop, or
	// transmitted wire packet).
	CorpusOp = corpus.Op
	// CorpusReplayConfig parameterises ReplayCorpusEntry. Entries
	// replay on their own; a spec passed in rebuilds the entries
	// recorded against its name.
	CorpusReplayConfig = corpus.ReplayConfig
	// CorpusReplayResult reports whether a replay reproduced the entry's
	// signature on a fresh rig, with the fresh crash artefact and the
	// triage root-cause report.
	CorpusReplayResult = corpus.ReplayResult
	// CorpusMinimizeConfig parameterises MinimizeCorpusEntry.
	CorpusMinimizeConfig = corpus.MinimizeConfig
	// CorpusMinimizeResult is the delta-debugged (minimal still-crashing)
	// form of an entry's trace.
	CorpusMinimizeResult = corpus.MinimizeResult
	// TelemetryCounters is a set of allocation-free atomic farm
	// counters (frames, packets, mutations, findings, job lifecycle).
	// Wire one into a farm via FleetConfig.Counters; all methods are
	// safe on a nil receiver, so instrumentation is zero-cost when off.
	TelemetryCounters = telemetry.Counters
	// TelemetryCounterSnapshot is a consistent point-in-time reading of
	// a counter set.
	TelemetryCounterSnapshot = telemetry.CounterSnapshot
	// TelemetryJournal is a structured JSONL run journal: farm events
	// and periodic counter samples as timestamped records. Wire one into
	// a farm via FleetConfig.Journal; replay it with ReplayFleetJournal.
	TelemetryJournal = telemetry.Journal
	// TelemetryRecord is one timestamped journal record.
	TelemetryRecord = telemetry.Record
	// TelemetryServer is a live introspection HTTP server (expvar,
	// Prometheus text metrics, report snapshots, pprof).
	TelemetryServer = telemetry.Server
	// TelemetryServerConfig wires counters and a snapshot source into a
	// TelemetryServer.
	TelemetryServerConfig = telemetry.ServerConfig
)

// The farm event types.
const (
	// FleetJobStarted fires when a worker picks up a job.
	FleetJobStarted = fleet.EventJobStarted
	// FleetJobDone fires when a job's result is folded into the farm
	// aggregate.
	FleetJobDone = fleet.EventJobDone
	// FleetNewFinding fires for every finding signature the farm had
	// not seen before.
	FleetNewFinding = fleet.EventNewFinding
	// FleetWorkerUp fires once per executor worker before any job
	// event (executors with identifiable workers only).
	FleetWorkerUp = fleet.EventWorkerUp
	// FleetWorkerDown fires when an executor worker retires — cleanly
	// at shutdown, or mid-run with the reason in Event.WorkerErr.
	FleetWorkerDown = fleet.EventWorkerDown
)

// The schedulable farm job kinds: the paper's four compared fuzzers,
// the two §V extensions, and the scenario-diversity engines over the
// SDP and L2CAP state-machine surfaces.
const (
	FleetL2Fuzz    = fleet.KindL2Fuzz
	FleetDefensics = fleet.KindDefensics
	FleetBFuzz     = fleet.KindBFuzz
	FleetBSS       = fleet.KindBSS
	FleetRFCOMM    = fleet.KindRFCOMM
	FleetCampaign  = fleet.KindCampaign
	FleetSDP       = fleet.KindSDP
	FleetSM        = fleet.KindSM
)

// FleetKinds returns every schedulable farm job kind in report order.
func FleetKinds() []FleetKind { return fleet.AllKinds() }

// The predefined farm variant names (the paper's §IV-D ablation grid).
const (
	FleetVariantBaseline       = fleet.VariantBaseline
	FleetVariantNoStateGuiding = fleet.VariantNoStateGuiding
	FleetVariantAllFields      = fleet.VariantAllFields
	FleetVariantNoGarbage      = fleet.VariantNoGarbage
)

// FleetAblationVariants returns the §IV-D ablation grid in report
// order: the baseline followed by the no-state-guiding, all-fields and
// no-garbage ablations. A farm over these variants reproduces the
// paper's design-argument table from a single report.
func FleetAblationVariants() []FleetVariant { return fleet.AblationVariants() }

// FleetVariantByName resolves one of the predefined ablation variants
// by name.
func FleetVariantByName(name string) (FleetVariant, error) { return fleet.VariantByName(name) }

// RunFleet executes a fuzzing farm: every job of the matrix described
// by cfg runs in its own private Simulation-equivalent testbed on a
// bounded worker pool, and the results aggregate into one FleetReport.
// Equal configs give equal reports regardless of worker scheduling
// (wall-clock aside). The error covers matrix validation; individual
// job failures are recorded in the report.
func RunFleet(cfg FleetConfig) (*FleetReport, error) {
	return fleet.Run(cfg)
}

// StartFleet launches a fuzzing farm and returns it streaming: the
// farm's Events channel announces job starts, job completions and
// de-duplicated findings as they land, Snapshot renders the aggregate
// mid-run, and Wait returns the final report. RunFleet is this plus a
// drain loop — the two share one aggregation path, so a streamed farm
// and a batch farm over the same matrix agree exactly. The consumer
// must drain Events (or call Wait, which drains the rest).
func StartFleet(cfg FleetConfig) (*FleetFarm, error) {
	return fleet.Start(cfg)
}

// NewFleetProcExecutor builds a process-isolated farm executor: the
// farm boots all its worker subprocesses at once when it starts, each
// job travels to an idle worker as length-prefixed JSON and its result
// (findings, metrics, telemetry deltas) travels back, and the workers
// retire together when the farm ends. Pass it via FleetConfig.Executor
// to one farm.
func NewFleetProcExecutor(pc FleetProcConfig) *FleetProcExecutor {
	return fleet.NewProcExecutor(pc)
}

// RunFleetWorker speaks the farm worker protocol on r and w — the
// entry point a worker subprocess calls on its stdin/stdout when
// spawned by a FleetProcExecutor (cmd/l2farm wires it to -worker). It
// returns nil when the coordinator closes the job stream.
func RunFleetWorker(r io.Reader, w io.Writer) error {
	return fleet.RunWorker(r, w)
}

// OpenCorpus opens (creating if needed) a persistent finding corpus in
// dir. Wire it into a farm with FleetConfig.Corpus: new findings are
// persisted with their repro traces as they stream in, and findings
// whose signature the store already holds are marked Known in the
// report instead of announced as new.
func OpenCorpus(dir string) (*CorpusStore, error) {
	return corpus.Open(dir)
}

// CorpusKey derives the stable store key of a finding signature (the
// addressing scheme cmd/l2repro uses).
func CorpusKey(sig FindingSignature) string { return corpus.KeyOf(sig) }

// ReplayCorpusEntry re-drives a stored entry's recorded trace against a
// fresh testbed rig, verifies the crash still fires with the recorded
// signature, and triages the freshly reproduced crash artefact.
func ReplayCorpusEntry(e CorpusEntry, cfg CorpusReplayConfig) (*CorpusReplayResult, error) {
	return corpus.Replay(e, cfg)
}

// MinimizeCorpusEntry delta-debugs a stored entry's trace to a minimal
// operation sequence that still reproduces its signature on a fresh
// rig.
func MinimizeCorpusEntry(e CorpusEntry, cfg CorpusMinimizeConfig) (*CorpusMinimizeResult, error) {
	return corpus.Minimize(e, cfg)
}

// TelemetryJournalFile is the file name OpenTelemetryJournal creates in
// its run directory.
const TelemetryJournalFile = telemetry.JournalFile

// NewTelemetryJournal builds a run journal writing JSONL records to w.
func NewTelemetryJournal(w io.Writer) *TelemetryJournal { return telemetry.NewJournal(w) }

// OpenTelemetryJournal creates dir (and parents) and opens a fresh
// journal file inside it, refusing to overwrite an existing one — each
// run gets its own directory.
func OpenTelemetryJournal(dir string) (*TelemetryJournal, error) { return telemetry.OpenJournal(dir) }

// DecodeTelemetryJournal streams a journal's records through fn. A
// journal whose last line was torn mid-write delivers its complete
// records and then returns an error.
func DecodeTelemetryJournal(r io.Reader, fn func(TelemetryRecord) error) error {
	return telemetry.DecodeJournal(r, fn)
}

// ReplayFleetJournal folds a recorded run journal back through a fresh
// aggregator and returns the reconstructed farm report. cfg must
// describe the same job matrix the journal was recorded from; the
// reconstructed report matches the live one exactly (the farm-level
// Wall aside, which only the live farm's clock can stamp). Journal
// schema versions 3 and 4 are read. A journal with a torn last line
// replays into the report of its complete records, returned together
// with a non-nil error.
func ReplayFleetJournal(cfg FleetConfig, r io.Reader) (*FleetReport, error) {
	return fleet.ReplayJournal(cfg, r)
}

// ServeTelemetry starts the live introspection endpoint on addr
// (e.g. "localhost:6060"): /debug/vars, /metrics in Prometheus text
// format, /snapshot with the configured snapshot source, and
// /debug/pprof. Close shuts it down.
func ServeTelemetry(addr string, cfg TelemetryServerConfig) (*TelemetryServer, error) {
	return telemetry.Serve(addr, cfg)
}

// Connection-error classes (paper §III-E).
const (
	ErrNone             = core.ErrNone
	ErrConnectionFailed = core.ErrConnectionFailed
	ErrConnectionAbort  = core.ErrConnectionAborted
	ErrConnectionReset  = core.ErrConnectionReset
	ErrConnectionRefuse = core.ErrConnectionRefused
	ErrTimeout          = core.ErrTimeout
)

// Vendor stack profile constructors, re-exported for custom devices.
var (
	// BlueDroidProfile models Android's stack (lenient, eager).
	BlueDroidProfile = device.BlueDroidProfile
	// BlueZProfile models the Linux stack.
	BlueZProfile = device.BlueZProfile
	// IOSProfile models Apple's iOS stack (strict).
	IOSProfile = device.IOSProfile
	// RTKitProfile models Apple's earphone firmware stack.
	RTKitProfile = device.RTKitProfile
	// BTWProfile models Broadcom's BTW stack (strict).
	BTWProfile = device.BTWProfile
	// WindowsProfile models the Microsoft stack (strict).
	WindowsProfile = device.WindowsProfile
)

// Injected-defect constructors, re-exported so custom target specs can
// arm the catalog's four findings with their own calibration (pass the
// result to a profile constructor's vulns parameter).
var (
	// BlueDroidCCBNullDeref is the D1/D2 null-CCB dereference (DoS).
	BlueDroidCCBNullDeref = device.BlueDroidCCBNullDeref
	// SamsungCreateChannelDeref is the D3 create-channel dereference (DoS).
	SamsungCreateChannelDeref = device.SamsungCreateChannelDeref
	// RTKitPSMServiceKill is the D5 malicious-PSM termination (Crash).
	RTKitPSMServiceKill = device.RTKitPSMServiceKill
	// BlueZOptionOverrunGPF is the D8 option-parsing fault (Crash).
	BlueZOptionOverrunGPF = device.BlueZOptionOverrunGPF
)

// FleetDeviceSpec builds a custom farm target spec from a name, MAC
// address, stack profile and port list: the fleet analogue of
// AddCustomDevice. The name identifies the target across seeds, packet
// budgets and report sections, so it must be unique within a farm and
// must not reuse a catalog ID. A profile carrying injected defects
// marks the spec ExpectVuln with the first defect's class.
func FleetDeviceSpec(name, mac string, profile DeviceProfile, ports []ServicePort) (DeviceSpec, error) {
	addr, err := radio.ParseBDAddr(mac)
	if err != nil {
		return DeviceSpec{}, fmt.Errorf("l2fuzz: %w", err)
	}
	spec := DeviceSpec{
		Name: name,
		Config: device.Config{
			Addr:    addr,
			Name:    name,
			Profile: profile,
			Ports:   ports,
		},
		ExpectVuln: len(profile.Vulns) > 0,
	}
	if spec.ExpectVuln {
		spec.ExpectClass = profile.Vulns[0].Class
	}
	if err := spec.Validate(); err != nil {
		return DeviceSpec{}, fmt.Errorf("l2fuzz: %w", err)
	}
	return spec, nil
}

// ParseDeviceSpec decodes the JSON form of a target spec — the format
// cmd/l2farm's -device-file flag reads. Malformed documents are
// rejected with the line and column of the error.
func ParseDeviceSpec(data []byte) (DeviceSpec, error) {
	spec, err := device.DecodeSpec(data)
	if err != nil {
		return DeviceSpec{}, fmt.Errorf("l2fuzz: %w", err)
	}
	return spec, nil
}

// CatalogDeviceIDs returns the paper's Table V device IDs in catalog
// order.
func CatalogDeviceIDs() []string { return device.CatalogIDs() }

// CatalogDeviceSpec returns one of the paper's Table V devices
// ("D1".."D8") as a target spec with its injected defects armed.
func CatalogDeviceSpec(id string) (DeviceSpec, error) {
	spec, err := device.CatalogSpec(id, false)
	if err != nil {
		return DeviceSpec{}, fmt.Errorf("l2fuzz: %w", err)
	}
	return spec, nil
}

// BaselineName selects a comparison fuzzer.
type BaselineName string

// The comparison fuzzers of the paper's evaluation.
const (
	BaselineDefensics BaselineName = "Defensics"
	BaselineBFuzz     BaselineName = "BFuzz"
	BaselineBSS       BaselineName = "BSS"
)

// FuzzConfig parameterises an L2Fuzz run.
type FuzzConfig struct {
	// Seed drives every random choice; equal seeds give equal runs.
	Seed int64
	// MaxPackets caps the run; zero uses the library default, and a
	// negative value fails the run.
	MaxPackets int
	// LogWriter receives the run log; nil discards it.
	LogWriter io.Writer
	// Ablation switches off design choices (paper §IV-D studies).
	Ablation
}

// Simulation is one self-contained virtual Bluetooth testbed.
type Simulation struct {
	medium  *radio.Medium
	client  *host.Client
	sniffer *metrics.Sniffer
	devices map[string]*device.Device
}

// ErrUnknownDevice reports a device name the simulation does not hold.
var ErrUnknownDevice = errors.New("l2fuzz: unknown device")

// NewSimulation builds an empty testbed with a tester endpoint and an
// attached trace sniffer.
func NewSimulation() (*Simulation, error) {
	m := radio.NewMedium(nil, radio.DefaultTiming())
	cl, err := host.NewClient(m, testbed.TesterAddr, "test-machine")
	if err != nil {
		return nil, fmt.Errorf("l2fuzz: %w", err)
	}
	return &Simulation{
		medium:  m,
		client:  cl,
		sniffer: metrics.NewSniffer(m, testbed.TesterAddr),
		devices: make(map[string]*device.Device),
	}, nil
}

// AddCatalogDevice instantiates one of the paper's Table V devices by ID
// ("D1".."D8") with its injected defects armed, returning the name under
// which the simulation tracks it.
func (s *Simulation) AddCatalogDevice(id string) (string, error) {
	return s.addCatalog(id, false)
}

// AddMeasurementDevice instantiates a catalog device with defects
// disabled: the measurement-grade target the paper's Table VII and
// figure experiments need (the device must survive 100,000 packets).
func (s *Simulation) AddMeasurementDevice(id string) (string, error) {
	return s.addCatalog(id, true)
}

func (s *Simulation) addCatalog(id string, disableVulns bool) (string, error) {
	// The options own the vuln switch, so the spec is resolved armed.
	spec, err := device.CatalogSpec(id, false)
	if err != nil {
		return "", fmt.Errorf("l2fuzz: %w", err)
	}
	return s.add(spec, testbed.Options{DisableVulns: disableVulns})
}

// AddDeviceSpec instantiates a first-class target spec in the
// simulation, tracking it under the spec's name. Catalog specs
// (CatalogDeviceSpec), decoded specs (ParseDeviceSpec) and hand-built
// ones all go through the same path.
func (s *Simulation) AddDeviceSpec(spec DeviceSpec) (string, error) {
	return s.add(spec, testbed.Options{})
}

// add instantiates spec the way a farm rig does under opts, so a
// simulation device carries the same armed defects as the farm's, and
// tracks it under the spec's name.
func (s *Simulation) add(spec DeviceSpec, opts testbed.Options) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", fmt.Errorf("l2fuzz: %w", err)
	}
	d, err := device.New(s.medium, testbed.DeviceConfig(spec, opts))
	if err != nil {
		return "", fmt.Errorf("l2fuzz: %w", err)
	}
	s.devices[spec.Name] = d
	return spec.Name, nil
}

// AddCustomDevice instantiates a device from a profile and port list. The
// SDP port is added automatically when absent.
func (s *Simulation) AddCustomDevice(name, mac string, profile DeviceProfile, ports []ServicePort) (string, error) {
	spec, err := FleetDeviceSpec(name, mac, profile, ports)
	if err != nil {
		return "", err
	}
	return s.add(spec, testbed.Options{})
}

// Devices lists the simulation's device names in insertion-independent
// (sorted) order.
func (s *Simulation) Devices() []string {
	names := make([]string, 0, len(s.devices))
	for n := range s.devices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (s *Simulation) lookup(name string) (*device.Device, error) {
	d, ok := s.devices[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDevice, name)
	}
	return d, nil
}

// Scan runs only the target-scanning phase against the named device.
func (s *Simulation) Scan(name string) (ScanReport, error) {
	d, err := s.lookup(name)
	if err != nil {
		return ScanReport{}, err
	}
	return core.Scan(s.client, d.Address())
}

// RunL2Fuzz runs the full four-phase L2Fuzz workflow against the named
// device.
func (s *Simulation) RunL2Fuzz(name string, cfg FuzzConfig) (*Report, error) {
	d, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return core.New(s.client, core.Config{
		Seed:       cfg.Seed,
		MaxPackets: cfg.MaxPackets,
		LogWriter:  cfg.LogWriter,
		Ablation:   cfg.Ablation,
	}).Run(d.Address())
}

// RunBaseline runs one of the comparison fuzzers for maxPackets packets.
func (s *Simulation) RunBaseline(name string, which BaselineName, seed int64, maxPackets int) (BaselineResult, error) {
	d, err := s.lookup(name)
	if err != nil {
		return BaselineResult{}, err
	}
	var fz fuzzers.Fuzzer
	switch which {
	case BaselineDefensics:
		fz = defensics.New(s.client, seed)
	case BaselineBFuzz:
		fz = bfuzz.New(s.client, seed)
	case BaselineBSS:
		fz = bss.New(s.client, seed)
	default:
		return BaselineResult{}, fmt.Errorf("l2fuzz: unknown baseline %q", which)
	}
	return fz.Run(d.Address(), maxPackets)
}

// AddRFCOMMDevice instantiates a custom device that also mounts an RFCOMM
// multiplexer with the given server channels — the substrate for the
// paper's §V extension. When vulnerable, the multiplexer ships the
// reserved-DLCI defect the extension fuzzer can find.
func (s *Simulation) AddRFCOMMDevice(name, mac string, profile DeviceProfile, ports []ServicePort, services []RFCOMMService, vulnerable bool) (string, error) {
	spec, err := FleetDeviceSpec(name, mac, profile, ports)
	if err != nil {
		return "", err
	}
	spec.Config.RFCOMMServices = services
	if vulnerable {
		spec.Config.RFCOMMDefect = rfcomm.ReservedDLCIDefect()
	}
	return s.add(spec, testbed.Options{})
}

// RunRFCOMMFuzz runs the §V extension fuzzer — L2Fuzz's state guiding and
// core field mutating applied to the RFCOMM layer — against the named
// device, which must expose a pairing-free RFCOMM port.
func (s *Simulation) RunRFCOMMFuzz(name string, seed int64, maxFrames int) (*RFCOMMReport, error) {
	d, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return rfcommfuzz.New(s.client, rfcommfuzz.Config{Seed: seed, MaxFrames: maxFrames}).Run(d.Address())
}

// RunSDPFuzz runs the SDP scenario-diversity engine — DataElement/PDU
// malformation against the named device's service records — until the
// SDP server dies or the PDU budget is exhausted.
func (s *Simulation) RunSDPFuzz(name string, seed int64, maxPDUs int) (*SDPFuzzReport, error) {
	d, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return sdpfuzz.New(s.client, sdpfuzz.Config{Seed: seed, MaxPDUs: maxPDUs}).Run(d.Address())
}

// RunSMFuzz runs the state-machine scenario-diversity engine — a
// model-guided walk over the L2CAP channel transition table — against
// the named device.
func (s *Simulation) RunSMFuzz(name string, seed int64, maxPackets int) (*SMFuzzReport, error) {
	d, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return smfuzz.New(s.client, smfuzz.Config{Seed: seed, MaxPackets: maxPackets}).Run(d.Address())
}

// RunCampaign performs long-term fuzzing against the named device: the
// §V extension that replaces the paper's manual device resets with
// automatic ones in the virtual environment. Zero-valued config fields
// get library defaults; a negative bound fails the run.
func (s *Simulation) RunCampaign(name string, cfg CampaignConfig) (*CampaignReport, error) {
	d, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return campaign.New(s.client, d, cfg).Run()
}

// Metrics returns the sniffer's measurements over everything transmitted
// so far in this simulation.
func (s *Simulation) Metrics() Metrics { return s.sniffer.Summary() }

// StateCoverage returns the names of the L2CAP states the trace shows the
// targets visited.
func (s *Simulation) StateCoverage() []string {
	var out []string
	for _, st := range s.sniffer.StatesVisited() {
		out = append(out, st.String())
	}
	return out
}

// Crashed reports whether the named device has crashed.
func (s *Simulation) Crashed(name string) (bool, error) {
	d, err := s.lookup(name)
	if err != nil {
		return false, err
	}
	return d.Crashed(), nil
}

// CrashDump renders the named device's crash artefact (an Android
// tombstone, a GP-fault record) or an empty string when the device is
// healthy.
func (s *Simulation) CrashDump(name string) (string, error) {
	d, err := s.lookup(name)
	if err != nil {
		return "", err
	}
	if dump := d.CrashDump(); dump != nil {
		return dump.Render(), nil
	}
	return "", nil
}

// ResetDevice performs the manual reset the paper's testers did between
// runs, restoring a crashed device to service.
func (s *Simulation) ResetDevice(name string) error {
	d, err := s.lookup(name)
	if err != nil {
		return err
	}
	if err := d.Reset(); err != nil {
		return fmt.Errorf("l2fuzz: %w", err)
	}
	s.client.Disconnect(d.Address())
	return nil
}

// Triage correlates a finding with the named device's crash artefact and
// returns a structured root-cause analysis — the §V "internal log
// hooking" extension. It works with or without an artefact (firmware
// deaths leave none).
func (s *Simulation) Triage(name string, finding Finding) (RootCause, error) {
	d, err := s.lookup(name)
	if err != nil {
		return RootCause{}, err
	}
	return triage.Analyze(finding, d.CrashDump()), nil
}

// Ports lists the named device's service ports.
func (s *Simulation) Ports(name string) ([]ServicePort, error) {
	d, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return d.Ports(), nil
}
