// Package fleet orchestrates a parallel fuzzing farm over the simulated
// Bluetooth testbed: the production-scale answer to the paper's first
// limitation (§V), which confined one tester to one physical device.
//
// A Config describes a job matrix — targets × fuzzer kinds ×
// configuration variants × a sharded seed range — and the farm executes
// every job of the matrix on a bounded worker pool. The target axis is
// fully programmable: catalog device IDs (Devices) and first-class
// device.Spec values (CustomDevices) resolve into one target list, so
// the same farm fuzzes the paper's Table V testbed next to devices the
// paper never named. Every job points at its resolved Spec, which
// journals and proc worker sessions carry once per target; seeds,
// packet Budgets and per-device report sections key by target name,
// with catalog IDs hashing exactly as they always did. Each job builds
// its own radio medium, target device, tester client and trace sniffer
// (through the shared internal/testbed builder), so jobs share no
// mutable state and the farm scales with worker count while every
// individual job stays bit-for-bit deterministic: equal (job, seed)
// gives equal results regardless of worker scheduling.
//
// The variant axis carries per-job ablations: a Variant is a name plus
// the core.Ablation applied to L2Fuzz jobs and to every campaign run.
// The predefined AblationVariants reproduce the paper's §IV-D
// design-argument grid (baseline, no-state-guiding, all-fields,
// no-garbage) in one farm run, with a PerVariant breakdown in the
// Report making the MP/PR/state-coverage deltas directly comparable.
// Non-baseline variants salt the per-job seed derivation; an empty
// Variants list means the baseline alone and reproduces pre-variant
// farm reports byte-identically. Variants are plain data: proc workers
// receive the matrix's list once per session and resolve each job's
// variant from it, as the in-process pool does. Config validation
// refuses a variant that reuses a predefined name with another
// ablation.
//
// The execution core is streaming: Start launches the farm and returns
// a Farm whose Events channel announces JobStarted, JobDone and
// NewFinding as they happen, while a live Aggregator folds each
// JobResult on arrival. Snapshot renders the aggregate mid-run — the
// long-campaign mode the paper's §V virtual environment exists for —
// and Wait returns the final report. Run is a thin wrapper that drains
// the stream, so batch and streaming consumers share one aggregation
// code path and provably agree.
//
// The farm runs each job itself, in process on the dispatcher that
// picked it up, or on worker subprocesses when Config.Executor holds a
// ProcExecutor; both render byte-identical reports from equal configs.
// A ProcExecutor runs one farm: its workers spawn and handshake
// together at Start and retire together when the last job is accounted
// for, reaped and reported in id order, so a process farm starts and
// stops in about one worker's boot and exit time whatever its pool
// size. Start refuses an executor that already ran.
//
// The aggregate folds per-job results into one Report:
//
//   - findings are de-duplicated across devices and jobs by the same
//     (state, PSM, error-class) black-box signature the campaign runner
//     uses, recording which devices and fuzzer kinds reproduced each;
//   - trace metrics merge via metrics.Summary.Merge into one farm-wide
//     summary, whose States set is the exact union of the per-job
//     visited-state sets;
//   - per-device, per-kind and per-variant breakdowns count jobs,
//     packets, crashes and finding occurrences, the per-variant rows
//     additionally carrying their own merged metrics.
//
// Every fold is commutative and Snapshot orders its output by matrix
// position, never by arrival, so the whole Report is reproducible for a
// given Config no matter how the scheduler interleaved the workers.
//
// Farms become resumable across processes through a persistent corpus
// (Config.Corpus): every job then records its repro trace, new finding
// signatures are written to the store the moment they are first folded,
// and signatures the store already held are marked Known in the Report
// instead of announced as new — so repeated farms over one corpus only
// surface genuinely new crashes, and any stored finding can later be
// replayed, minimized and triaged on a fresh rig (internal/corpus,
// cmd/l2repro). The stored trace, like the report, is scheduling-
// independent: it converges on the lowest-index job that contributed a
// replayable one. The store is a trace's only long-lived owner: the
// fold writes a new finding's trace and then clears every trace from
// the job's result, so no report, job result or event holds one, a
// farm's memory follows the jobs it is running rather than the
// findings it has made, and a store-backed farm's live report equals
// its journal replay but for the Corpus section and the Known flags.
package fleet
