package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/fleet/record"
	"l2fuzz/internal/telemetry"
)

// The job-started record exists for progress curves and farm
// forensics; no reader reads it, so its payload is declared here, next
// to its only writer.
type journalStarted struct {
	Job record.Job `json:"job"`
	record.Progress
}

func (f *Farm) progress() record.Progress { return record.Progress{Done: f.done, Total: f.total} }

// journalHeader writes the run header at Start.
func (f *Farm) journalHeader(jobs []Job) {
	if f.cfg.Journal == nil {
		return
	}
	hdr := record.Header{
		Version:        record.Version,
		Jobs:           len(jobs),
		Workers:        f.cfg.Workers,
		BaseSeed:       f.cfg.BaseSeed,
		Shards:         f.cfg.Shards,
		Kinds:          f.cfg.Kinds,
		SampleInterval: f.cfg.SampleInterval,
		Specs:          f.cfg.targets,
	}
	for _, t := range f.cfg.targets {
		hdr.Targets = append(hdr.Targets, t.Name)
	}
	for _, v := range f.cfg.Variants {
		hdr.Variants = append(hdr.Variants, v.Name)
	}
	f.cfg.Journal.Write(record.TypeFarm, hdr)
}

// journalStarted, journalResult and journalFinding record the event
// stream; all three run under emitMu, so journal order matches event
// order. Write errors latch inside the journal and never stop the farm.
func (f *Farm) journalStarted(job Job) {
	if f.cfg.Journal == nil {
		return
	}
	f.cfg.Journal.Write(record.TypeJobStarted, journalStarted{Job: record.Job(job), Progress: f.progress()})
}

func (f *Farm) journalResult(res JobResult) {
	if f.cfg.Journal == nil {
		return
	}
	f.cfg.Journal.Write(record.TypeJobDone, record.Result{
		Job:      record.Job(res.Job),
		Worker:   res.Worker,
		Outcome:  res.outcome(),
		WallNs:   res.Wall,
		Span:     res.Span,
		Findings: res.Findings,
		Progress: f.progress(),
	})
}

func (f *Farm) journalFinding(rec FindingRecord, job Job) {
	if f.cfg.Journal == nil {
		return
	}
	f.cfg.Journal.Write(record.TypeFinding, record.Finding{Record: rec, Job: record.Job(job), Progress: f.progress()})
}

func (f *Farm) journalWorker(ev WorkerEvent) {
	if f.cfg.Journal == nil {
		return
	}
	f.cfg.Journal.Write(record.TypeWorker, record.WorkerChange{Worker: ev.Worker, Up: ev.Up, Err: ev.Err, Progress: f.progress()})
}

// minReplayVersion is the oldest journal schema ReplayJournal folds:
// version 3 is the first whose results carry the trace spans the live
// report holds.
const minReplayVersion = 3

// sameSpecs reports whether a journal header's specs are the config's
// targets, compared in their journal form.
func sameSpecs(journaled, targets []*device.Spec) bool {
	a, errA := json.Marshal(journaled)
	b, errB := json.Marshal(targets)
	return errA == nil && errB == nil && bytes.Equal(a, b)
}

// ReplayJournal folds a persisted run journal back into a Report, using
// the same Aggregator the live farm used, so the replayed report equals
// the live one field for field — job results (including per-job wall
// times and trace spans, which are read from the journal, not
// re-measured), breakdown tables, merged metrics and de-duplicated
// findings. Only the top-level Wall is zero: the farm stamps it from
// its own clock, which a replay does not have. The equality holds for
// corpus-backed farms too, whose live reports carry no repro traces
// either, with two stated exceptions: the replayed report has no
// Corpus section and marks no finding Known (see below).
//
// cfg must be the configuration the journal was written under: the
// journal's header is checked against the matrix it builds (its job
// count and, from schema version 4, its target specs), and each result
// is folded under the config's own job at the recorded index — an
// index outside the matrix, or a seed other than that job's, is
// rejected as the wrong config. Versions 3 and 4 are read; a version-3
// job record's inline spec is ignored, since the fold uses the
// config's own. Replay is a pure re-fold:
// Corpus, Journal, Counters and Executor are stripped, so replaying
// never writes store entries — which also means the Known flags of a
// corpus-backed run are not reconstructed (a replayed report marks
// every finding new). Repro traces are store-owned and never journaled,
// so replayed findings carry none, and neither do live ones.
//
// A journal whose writer died mid-record replays into the report of
// its complete records, returned with an error wrapping
// telemetry.ErrTornJournal; jobs without a result are left out.
func ReplayJournal(cfg Config, r io.Reader) (*Report, error) {
	cfg.Corpus = nil
	cfg.Journal = nil
	cfg.Counters = nil
	cfg.Executor = nil
	rcfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	jobs := buildJobs(rcfg)
	agg := newAggregator(rcfg, len(jobs))
	sawHeader := false
	err = telemetry.DecodeJournal(r, func(rec telemetry.Record) error {
		switch rec.Type {
		case record.TypeFarm:
			var hdr record.Header
			if err := json.Unmarshal(rec.Data, &hdr); err != nil {
				return fmt.Errorf("fleet: farm record: %w", err)
			}
			if hdr.Version < minReplayVersion || hdr.Version > record.Version {
				return fmt.Errorf("fleet: journal schema version %d, this build reads %d..%d", hdr.Version, minReplayVersion, record.Version)
			}
			if hdr.Jobs != len(jobs) {
				return fmt.Errorf("fleet: journal covers %d jobs but the config builds a %d-job matrix — wrong config for this journal", hdr.Jobs, len(jobs))
			}
			if hdr.Version >= 4 && !sameSpecs(hdr.Specs, rcfg.targets) {
				return errors.New("fleet: journal's target specs differ from the config's — wrong config for this journal")
			}
			sawHeader = true
		case record.TypeJobDone:
			if !sawHeader {
				return errors.New("fleet: journal carries results before its farm header")
			}
			rr, err := record.DecodeResult(rec.Data)
			if err != nil {
				return fmt.Errorf("fleet: %w", err)
			}
			i := rr.Job.Index
			if i < 0 || i >= len(jobs) || rr.Job.Seed != jobs[i].Seed {
				return fmt.Errorf("fleet: journal job %d with seed %d is not in the config's matrix — wrong config for this journal", i, rr.Job.Seed)
			}
			res := JobResult{Job: jobs[i], Worker: rr.Worker, Wall: rr.WallNs, Span: rr.Span, Findings: rr.Findings}
			res.setOutcome(rr.Outcome)
			agg.Add(res)
		}
		// job-started, finding, worker and sample records carry no
		// state the fold does not reconstruct.
		return nil
	})
	if err != nil && !errors.Is(err, telemetry.ErrTornJournal) {
		return nil, err
	}
	if !sawHeader {
		return nil, errors.New("fleet: not a farm journal (no farm header record)")
	}
	return agg.Snapshot(), err
}
