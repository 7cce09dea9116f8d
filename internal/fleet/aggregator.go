package fleet

import (
	"math"
	"sort"
	"sync"
	"time"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/core"
	"l2fuzz/internal/corpus"
	"l2fuzz/internal/metrics"
)

// Aggregator folds JobResults into farm-wide state as they arrive and
// can snapshot a full Report at any moment. It is safe for concurrent
// use, and — because every fold is commutative and Snapshot orders its
// output by matrix position, never by arrival — the snapshot after all
// jobs are folded is identical no matter how the scheduler interleaved
// the workers. The batch Run path and the streaming Farm path both
// aggregate through it, so the two cannot disagree.
type Aggregator struct {
	mu      sync.Mutex
	cfg     Config
	results []JobResult // dense, indexed by Job.Index
	folded  []bool

	completed, failed int
	totalPackets      int
	totalSim          time.Duration
	totalJobWall      time.Duration
	perDevice         map[string]*GroupStats
	perKind           map[Kind]*GroupStats
	perVariant        map[string]*VariantStats
	recs              map[Signature]*findingAcc
	metrics           metrics.Summary
	corpusErrs        []string
}

// findingAcc is one de-duplicated finding under accumulation, with the
// provenance needed to keep Snapshot arrival-order independent.
type findingAcc struct {
	rec FindingRecord
	// minIdx/occPos locate the canonical first occurrence: the lowest
	// contributing job index, tie-broken by position within that job's
	// finding list. Snapshot orders records by them.
	minIdx, occPos int
	// dumpIdx is the job index rec.Dump came from; math.MaxInt when the
	// record has no dump yet.
	dumpIdx int
	// entryIdx is the job index whose repro trace is persisted in the
	// corpus store; math.MaxInt when none is (no store, a Known
	// signature, or no job contributed a replayable trace yet). Like
	// dumpIdx it only ever decreases, so the stored trace converges on
	// the canonical lowest-index job no matter the fold order.
	entryIdx int
}

// NewAggregator builds an empty aggregator for cfg's job matrix. The
// config is validated and defaulted exactly as Run does.
func NewAggregator(cfg Config) (*Aggregator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return newAggregator(cfg, len(buildJobs(cfg))), nil
}

// newAggregator builds the aggregator from an already-resolved config
// and its matrix size, so Start does not default the config twice.
func newAggregator(cfg Config, total int) *Aggregator {
	return &Aggregator{
		cfg:        cfg,
		results:    make([]JobResult, total),
		folded:     make([]bool, total),
		perDevice:  make(map[string]*GroupStats),
		perKind:    make(map[Kind]*GroupStats),
		perVariant: make(map[string]*VariantStats),
		recs:       make(map[Signature]*findingAcc),
	}
}

// Add folds one job result and returns the findings whose signatures
// the farm had not seen before this fold (snapshot copies, in the
// order the job listed them). Results whose job index falls outside
// the matrix, or that were already folded, are ignored.
//
// Add takes the result's repro traces. The corpus store is a trace's
// only long-lived owner: once Add has written a finding's trace, if it
// writes one, it clears Finding.Trace and TraceTruncated in place in
// res.Findings — the array the caller's result shares — so neither the
// kept result, nor the finding records, nor the caller's copy hold one.
// A trace the store does not take (a Known signature, a higher-index
// occurrence, a truncated trace, a failed Put) is dropped. A failed
// result carries no findings.
func (a *Aggregator) Add(res JobResult) []FindingRecord {
	a.mu.Lock()
	defer a.mu.Unlock()

	idx := res.Job.Index
	if idx < 0 || idx >= len(a.results) || a.folded[idx] {
		return nil
	}
	a.folded[idx] = true
	a.results[idx] = res

	dev := a.perDevice[res.Job.Device]
	if dev == nil {
		dev = &GroupStats{}
		a.perDevice[res.Job.Device] = dev
	}
	kg := a.perKind[res.Job.Kind]
	if kg == nil {
		kg = &GroupStats{}
		a.perKind[res.Job.Kind] = kg
	}
	vg := a.perVariant[res.Job.Variant]
	if vg == nil {
		vg = &VariantStats{}
		a.perVariant[res.Job.Variant] = vg
	}
	dev.Jobs++
	kg.Jobs++
	vg.Jobs++
	// Wall folds before the error check: failed jobs consumed worker
	// time too.
	dev.Wall += res.Wall
	kg.Wall += res.Wall
	vg.Wall += res.Wall
	a.totalJobWall += res.Wall
	if res.Err != nil {
		a.failed++
		dev.Failed++
		kg.Failed++
		vg.Failed++
		return nil
	}
	a.completed++
	a.totalPackets += res.PacketsSent
	a.totalSim += res.Elapsed
	dev.Packets += res.PacketsSent
	kg.Packets += res.PacketsSent
	vg.Packets += res.PacketsSent
	if res.Crashed {
		dev.Crashes++
		kg.Crashes++
		vg.Crashes++
	}
	a.metrics = a.metrics.Merge(res.Summary)
	vg.Metrics = vg.Metrics.Merge(res.Summary)

	var fresh []FindingRecord
	for pos, occ := range res.Findings {
		dev.Findings += occ.Count
		kg.Findings += occ.Count
		vg.Findings += occ.Count
		sig := occ.Finding.Signature()
		acc, seen := a.recs[sig]
		if !seen {
			acc = &findingAcc{
				rec:      FindingRecord{Signature: sig, Finding: untraced(occ.Finding)},
				minIdx:   idx,
				occPos:   pos,
				dumpIdx:  math.MaxInt,
				entryIdx: math.MaxInt,
			}
			// Cross-run de-duplication: a signature the store held
			// before this fold is yesterday's finding reproduced, not a
			// new one. The check happens once, at first sight — entries
			// this run writes never turn its own findings Known.
			acc.rec.Known = a.cfg.Corpus != nil && a.cfg.Corpus.Has(sig)
			a.recs[sig] = acc
		} else if idx < acc.minIdx {
			// An earlier matrix cell contributed the signature: its
			// occurrence is the canonical first one.
			acc.rec.Finding = untraced(occ.Finding)
			acc.minIdx, acc.occPos = idx, pos
		}
		acc.rec.Count += occ.Count
		acc.rec.Devices = addDevice(acc.rec.Devices, res.Job.Device)
		acc.rec.Kinds = addKind(acc.rec.Kinds, res.Job.Kind)
		if occ.Dump != "" && idx < acc.dumpIdx {
			acc.rec.Dump = occ.Dump
			acc.dumpIdx = idx
		}
		a.persist(acc, res.Job, occ, idx)
		res.Findings[pos].Finding = untraced(occ.Finding)
		if !seen && !acc.rec.Known {
			fresh = append(fresh, cloneRecord(acc.rec))
		}
	}
	return fresh
}

// persist writes a new finding's repro trace to the corpus store. Like
// the dump, the stored trace converges on the lowest job index that
// contributed a replayable one, so the store's content is independent
// of worker scheduling; Known signatures are never overwritten.
func (a *Aggregator) persist(acc *findingAcc, job Job, occ Occurrence, idx int) {
	if a.cfg.Corpus == nil || acc.rec.Known || idx >= acc.entryIdx {
		return
	}
	trace := corpus.Trace{
		Seed:      job.Seed,
		Target:    job.Device,
		State:     occ.Finding.State,
		PSM:       occ.Finding.PSM,
		Ops:       occ.Finding.Trace,
		Truncated: occ.Finding.TraceTruncated,
	}
	if !trace.Replayable() {
		return
	}
	entry := corpus.Entry{
		Signature: acc.rec.Signature,
		Kind:      string(job.Kind),
		Finding:   occ.Finding,
		Trace:     trace,
	}
	// A custom target's entry embeds its spec, so it replays on its own;
	// a catalog target's replays by ID.
	if !device.IsCatalogID(job.Device) {
		entry.TargetSpec = job.Spec
	}
	err := a.cfg.Corpus.Put(entry)
	if err != nil {
		a.corpusErrs = append(a.corpusErrs, err.Error())
		return
	}
	acc.entryIdx = idx
}

// Snapshot renders the aggregate as a full Report at this moment.
// Pending jobs are simply absent from Jobs and the counters; once every
// job is folded, the snapshot is the farm's final report. The caller
// owns the result — later folds do not mutate it. Wall is left zero for
// the caller to stamp.
func (a *Aggregator) Snapshot() *Report {
	a.mu.Lock()
	defer a.mu.Unlock()

	rep := &Report{
		Completed:    a.completed,
		Failed:       a.failed,
		TotalPackets: a.totalPackets,
		TotalSimTime: a.totalSim,
		TotalJobWall: a.totalJobWall,
		Workers:      a.cfg.Workers,
		PerDevice:    make(map[string]*GroupStats, len(a.perDevice)),
		PerKind:      make(map[Kind]*GroupStats, len(a.perKind)),
		PerVariant:   make(map[string]*VariantStats, len(a.perVariant)),
		Metrics:      a.metrics,
	}
	for _, v := range a.cfg.Variants {
		rep.Variants = append(rep.Variants, v.Name)
	}
	for i, res := range a.results {
		if a.folded[i] {
			rep.Jobs = append(rep.Jobs, res)
		}
	}
	for id, g := range a.perDevice {
		c := *g
		rep.PerDevice[id] = &c
	}
	for k, g := range a.perKind {
		c := *g
		rep.PerKind[k] = &c
	}
	for name, g := range a.perVariant {
		c := *g
		c.Metrics.States = append([]string(nil), g.Metrics.States...)
		rep.PerVariant[name] = &c
	}

	accs := make([]*findingAcc, 0, len(a.recs))
	for _, acc := range a.recs {
		accs = append(accs, acc)
	}
	sort.Slice(accs, func(i, j int) bool {
		if accs[i].minIdx != accs[j].minIdx {
			return accs[i].minIdx < accs[j].minIdx
		}
		return accs[i].occPos < accs[j].occPos
	})
	for _, acc := range accs {
		rep.Findings = append(rep.Findings, cloneRecord(acc.rec))
	}
	if a.cfg.Corpus != nil {
		cs := &CorpusStats{Errors: append([]string(nil), a.corpusErrs...)}
		sort.Strings(cs.Errors)
		for _, acc := range a.recs {
			switch {
			case acc.rec.Known:
				cs.Known++
			case acc.entryIdx != math.MaxInt:
				cs.Saved++
			}
		}
		rep.Corpus = cs
	}

	rep.Metrics.States = append([]string(nil), a.metrics.States...)
	rep.StateCoverage = append([]string(nil), a.metrics.States...)
	return rep
}

// untraced returns f without its repro trace.
func untraced(f core.Finding) core.Finding {
	f.Trace, f.TraceTruncated = nil, false
	return f
}

// cloneRecord deep-copies a finding record so snapshots and events do
// not alias the accumulator's slices.
func cloneRecord(rec FindingRecord) FindingRecord {
	rec.Devices = append([]string(nil), rec.Devices...)
	rec.Kinds = append([]Kind(nil), rec.Kinds...)
	return rec
}
