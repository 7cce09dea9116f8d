package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"l2fuzz/internal/fleet/record"
	"l2fuzz/internal/telemetry"
)

// The job-started and finding records exist for progress curves and
// farm forensics; neither the replay nor the analyzer reads them, so
// their payloads are declared here, next to their only writer.
type journalStarted struct {
	Job record.Job `json:"job"`
	record.Progress
}

type journalFinding struct {
	Record FindingRecord `json:"record"`
	Job    record.Job    `json:"job"`
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
	f.cfg.Journal.Write(record.TypeFinding, journalFinding{Record: rec, Job: record.Job(job), Progress: f.progress()})
}

func (f *Farm) journalWorker(ev WorkerEvent) {
	if f.cfg.Journal == nil {
		return
	}
	f.cfg.Journal.Write(record.TypeWorker, record.WorkerChange{Worker: ev.Worker, Up: ev.Up, Err: ev.Err, Progress: f.progress()})
}

// ReplayJournal folds a persisted run journal back into a Report, using
// the same Aggregator the live farm used, so the replayed report equals
// the live one field for field — job results (including per-job wall
// times and trace spans, which are read from the journal, not
// re-measured), breakdown tables, merged metrics and de-duplicated
// findings. Only the top-level Wall is zero: the farm stamps it from
// its own clock, which a replay does not have.
//
// cfg must be the configuration the journal was written under: the
// journal's header is checked against the matrix it builds, and each
// result is folded under the config's own job at the recorded index —
// an index outside the matrix, or a seed other than that job's, is
// rejected as the wrong config. Replay is a pure re-fold:
// Corpus, Journal, Counters and Executor are stripped, so replaying
// never writes store entries — which also means the Known flags of a
// corpus-backed run are not reconstructed (a replayed report marks
// every finding new). Repro traces are store-owned and never journaled,
// so replayed findings carry none.
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
			if hdr.Version != record.Version {
				return fmt.Errorf("fleet: journal schema version %d, this build reads %d", hdr.Version, record.Version)
			}
			if hdr.Jobs != len(jobs) {
				return fmt.Errorf("fleet: journal covers %d jobs but the config builds a %d-job matrix — wrong config for this journal", hdr.Jobs, len(jobs))
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
