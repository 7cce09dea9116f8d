package fleet

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"l2fuzz/internal/core"
	"l2fuzz/internal/fleet/record"
	"l2fuzz/internal/metrics"
)

// Occurrence is one finding a job produced, with its per-job repeat
// count (campaign jobs reproduce findings across runs).
type Occurrence = record.Occurrence

// Span is one job's trace through the farm's execution phases; see
// record.Span for the phases and the windows derived from them.
type Span = record.Span

// JobResult is the outcome of one job.
type JobResult struct {
	// Job identifies the matrix cell and shard.
	Job Job
	// Worker identifies where the job ran: LocalWorkerID in process,
	// "proc/<i>" for a ProcExecutor worker. Informational — reports
	// render identically either way.
	Worker string
	// Err records a job failure; the other fields are partial when set.
	Err error
	// PacketsSent counts the job's transmitted packets (frames for
	// KindRFCOMM).
	PacketsSent int
	// Elapsed is the job's simulated duration.
	Elapsed time.Duration
	// Wall is the job's real-time duration on its worker, measured
	// around the job run with the monotonic clock.
	Wall time.Duration
	// Span traces the job through the farm's phases — queued,
	// dispatched, started, finished, plus the in-executor execution
	// time — as monotonic offsets from the farm's start. Journals
	// record it, so an analyzer can reconstruct per-phase latency and
	// per-worker utilization after the run.
	Span Span
	// Findings are the job's detections (empty for baseline kinds). An
	// executor's result carries each finding's repro trace when the
	// farm records them; Aggregator.Add takes the traces, so a folded
	// result — in Report.Jobs and in EventJobDone — carries none.
	Findings []Occurrence
	// Crashed reports whether the target device ended the job crashed.
	Crashed bool
	// Summary is the job's trace-metrics summary, including the
	// visited-state set in Summary.States.
	Summary metrics.Summary
}

// outcome is the result's executor-measured part in its record form,
// as the journal and the worker wire carry it.
func (r JobResult) outcome() record.Outcome {
	o := record.Outcome{PacketsSent: r.PacketsSent, ElapsedNs: r.Elapsed, Crashed: r.Crashed, Summary: r.Summary}
	if r.Err != nil {
		o.Err = r.Err.Error()
	}
	return o
}

// setOutcome fills the result's executor-measured part from its record
// form.
func (r *JobResult) setOutcome(o record.Outcome) {
	r.PacketsSent, r.Elapsed, r.Crashed, r.Summary = o.PacketsSent, o.ElapsedNs, o.Crashed, o.Summary
	if o.Failed() {
		r.Err = errors.New(o.Err)
	}
}

// Signature is the black-box identity of a finding — the shared
// core.Signature (state, port, error-class) triple the campaign runner
// de-duplicates by, here applied across devices and fuzzer kinds, and
// the key the persistent corpus stores repro traces under. One type for
// all three layers means corpus keys cannot drift from report keys.
type Signature = core.Signature

// FindingRecord is one de-duplicated finding with its farm-wide
// provenance; see record.FindingRecord.
type FindingRecord = record.FindingRecord

// CorpusStats summarises a farm's interaction with its corpus store.
type CorpusStats struct {
	// Saved counts the distinct new signatures whose repro traces were
	// persisted this run.
	Saved int
	// Known counts the distinct signatures the store already held.
	Known int
	// Errors lists store write failures, sorted.
	Errors []string
}

// GroupStats is a per-device or per-kind breakdown row.
type GroupStats struct {
	// Jobs counts scheduled jobs, Failed the errored subset.
	Jobs, Failed int
	// Packets sums transmitted packets.
	Packets int
	// Findings sums finding occurrences.
	Findings int
	// Crashes counts jobs that left the device crashed.
	Crashes int
	// Wall sums the real time the group's jobs spent on workers,
	// including failed jobs (they consumed worker time too).
	Wall time.Duration
}

// VariantStats is a per-variant breakdown row: the job counters plus
// the variant's own merged trace metrics, so MP/PR/state-coverage
// deltas between variants are directly comparable within one Report —
// the farm form of the paper's §IV-D ablation table.
type VariantStats struct {
	GroupStats
	// Metrics is the merged trace summary of the variant's completed
	// jobs; its States set is the exact union of their visited-state
	// sets.
	Metrics metrics.Summary
}

// Report is the aggregated farm outcome.
type Report struct {
	// Jobs are all job results in matrix order.
	Jobs []JobResult
	// Completed and Failed partition the matrix.
	Completed, Failed int
	// TotalPackets sums packets across jobs.
	TotalPackets int
	// TotalSimTime sums simulated job durations (the serial-equivalent
	// campaign length).
	TotalSimTime time.Duration
	// Wall is the real time the farm took.
	Wall time.Duration
	// TotalJobWall sums real per-job wall durations across all workers
	// — the serial-equivalent real cost of the matrix. With W workers
	// and no scheduling gaps it approaches W×Wall.
	TotalJobWall time.Duration
	// Workers is the pool size used.
	Workers int
	// Findings are the de-duplicated findings in first-seen matrix
	// order.
	Findings []FindingRecord
	// PerDevice and PerKind are the breakdown tables; PerDevice keys by
	// target name (catalog ID or custom spec name).
	PerDevice map[string]*GroupStats
	PerKind   map[Kind]*GroupStats
	// PerVariant is the per-variant breakdown, keyed by variant name.
	PerVariant map[string]*VariantStats
	// Variants lists the matrix's variant names in configuration order
	// (the order the PerVariant table renders in).
	Variants []string
	// Metrics is the farm-wide merged trace summary; its States set is
	// the exact union of the per-job visited-state sets.
	Metrics metrics.Summary
	// StateCoverage is that union, sorted by name.
	StateCoverage []string
	// Corpus summarises the corpus-store interaction; nil when the farm
	// ran without a store.
	Corpus *CorpusStats
}

// FindingsOn returns the de-duplicated findings involving one target,
// by name.
func (r *Report) FindingsOn(target string) []FindingRecord {
	var out []FindingRecord
	for _, f := range r.Findings {
		for _, d := range f.Devices {
			if d == target {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// addDevice inserts a device ID into a sorted unique slice.
func addDevice(devs []string, id string) []string {
	i := sort.SearchStrings(devs, id)
	if i < len(devs) && devs[i] == id {
		return devs
	}
	devs = append(devs, "")
	copy(devs[i+1:], devs[i:])
	devs[i] = id
	return devs
}

// addKind inserts a kind into a slice kept in AllKinds order.
func addKind(kinds []Kind, k Kind) []Kind {
	for _, have := range kinds {
		if have == k {
			return kinds
		}
	}
	kinds = append(kinds, k)
	order := make(map[Kind]int, len(AllKinds()))
	for i, known := range AllKinds() {
		order[known] = i
	}
	sort.Slice(kinds, func(i, j int) bool { return order[kinds[i]] < order[kinds[j]] })
	return kinds
}

// Render prints the farm report as a fixed-width console table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet report: %d jobs (%d failed), %d workers\n",
		len(r.Jobs), r.Failed, r.Workers)
	fmt.Fprintf(&b, "traffic: %d packets, %v simulated, %v wall (%v in jobs)\n",
		r.TotalPackets, r.TotalSimTime.Round(time.Millisecond), r.Wall.Round(time.Millisecond),
		r.TotalJobWall.Round(time.Millisecond))
	fmt.Fprintf(&b, "metrics: MP %.2f%%  PR %.2f%%  efficiency %.2f%%  %.0f pkt/s (serial-equivalent), %d states covered\n",
		100*r.Metrics.MPRatio, 100*r.Metrics.PRRatio,
		100*r.Metrics.MutationEfficiency, r.Metrics.PacketsPerSecond,
		r.Metrics.StatesCovered)
	// The corpus line appears only on corpus-backed farms, keeping
	// store-less reports byte-identical to pre-corpus ones.
	if r.Corpus != nil {
		fmt.Fprintf(&b, "corpus: %d new trace(s) saved, %d known signature(s)\n",
			r.Corpus.Saved, r.Corpus.Known)
		for _, e := range r.Corpus.Errors {
			fmt.Fprintf(&b, "corpus: WRITE FAILED: %s\n", e)
		}
	}

	// The device column grows with the longest target name but never
	// shrinks below the historical 8 columns, so catalog-only reports
	// stay byte-identical to pre-target-spec ones.
	devW := 8
	for id := range r.PerDevice {
		if len(id) > devW {
			devW = len(id)
		}
	}
	b.WriteString("\nPer device:\n")
	fmt.Fprintf(&b, "  %-*s %5s %6s %10s %9s %8s %10s\n", devW, "device", "jobs", "failed", "packets", "findings", "crashes", "wall")
	for _, id := range sortedKeys(r.PerDevice) {
		g := r.PerDevice[id]
		fmt.Fprintf(&b, "  %-*s %5d %6d %10d %9d %8d %10v\n", devW, id, g.Jobs, g.Failed, g.Packets, g.Findings, g.Crashes, g.Wall.Round(time.Millisecond))
	}

	b.WriteString("\nPer fuzzer:\n")
	fmt.Fprintf(&b, "  %-10s %5s %6s %10s %9s %8s\n", "fuzzer", "jobs", "failed", "packets", "findings", "crashes")
	for _, k := range AllKinds() {
		g := r.PerKind[k]
		if g == nil {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %5d %6d %10d %9d %8d\n", k, g.Jobs, g.Failed, g.Packets, g.Findings, g.Crashes)
	}

	// The variant table appears only when the variant axis is non-trivial,
	// keeping baseline-only farm reports byte-identical to pre-variant
	// ones.
	if len(r.Variants) > 1 || (len(r.Variants) == 1 && r.Variants[0] != VariantBaseline) {
		b.WriteString("\nPer variant:\n")
		fmt.Fprintf(&b, "  %-18s %5s %6s %10s %9s %8s %7s %7s %7s %7s\n",
			"variant", "jobs", "failed", "packets", "findings", "crashes", "MP%", "PR%", "eff%", "states")
		for _, name := range r.Variants {
			g := r.PerVariant[name]
			if g == nil {
				continue
			}
			fmt.Fprintf(&b, "  %-18s %5d %6d %10d %9d %8d %7.2f %7.2f %7.2f %7d\n",
				name, g.Jobs, g.Failed, g.Packets, g.Findings, g.Crashes,
				100*g.Metrics.MPRatio, 100*g.Metrics.PRRatio,
				100*g.Metrics.MutationEfficiency, g.Metrics.StatesCovered)
		}
	}

	if len(r.Findings) == 0 {
		b.WriteString("\nNo findings.\n")
		return b.String()
	}
	fmt.Fprintf(&b, "\nFindings (%d distinct signatures):\n", len(r.Findings))
	for i, f := range r.Findings {
		kinds := make([]string, len(f.Kinds))
		for j, k := range f.Kinds {
			kinds[j] = string(k)
		}
		known := ""
		if f.Known {
			known = "  (known)"
		}
		fmt.Fprintf(&b, "  %2d. %s (%s) ×%d  devices: %s  via: %s%s\n",
			i+1, f.Signature, f.Finding.Error.Severity(), f.Count,
			strings.Join(f.Devices, ","), strings.Join(kinds, ","), known)
	}
	return b.String()
}

// ScrubWall zeroes every real-time field — the farm Wall, the summed
// per-job wall, each job's Wall and trace Span, and every per-group
// wall sum — so reports from separate runs can be compared for
// everything except wall-clock time. Simulated durations are
// untouched: they are deterministic and comparisons should cover them.
func (r *Report) ScrubWall() {
	r.Wall = 0
	r.TotalJobWall = 0
	for i := range r.Jobs {
		r.Jobs[i].Wall = 0
		r.Jobs[i].Span = Span{}
	}
	for _, g := range r.PerDevice {
		g.Wall = 0
	}
	for _, g := range r.PerKind {
		g.Wall = 0
	}
	for _, g := range r.PerVariant {
		g.Wall = 0
	}
}

func sortedKeys(m map[string]*GroupStats) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
