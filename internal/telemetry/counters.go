package telemetry

import "sync/atomic"

// Counters is the farm's hot-path counter set. All methods are safe on
// a nil receiver and allocate nothing, so instrumented code calls them
// unconditionally: a run without telemetry pays one nil check per
// event. One Counters value is shared by every worker of a farm; the
// fields are independent atomics, so concurrent bumps never contend on
// a lock.
type Counters struct {
	frames      atomic.Int64
	bytes       atomic.Int64
	packets     atomic.Int64
	malformed   atomic.Int64
	mutations   atomic.Int64
	findings    atomic.Int64
	jobsStarted atomic.Int64
	jobsDone    atomic.Int64
	jobsFailed  atomic.Int64
}

// AddPackets records n fuzzing packets at once (connection setup
// traffic is counted in bulk).
func (c *Counters) AddPackets(n int) {
	if c == nil || n == 0 {
		return
	}
	c.packets.Add(int64(n))
}

// AddFrames records frames radio frames carrying bytes payload bytes at
// once, for taps that tally locally and flush periodically.
func (c *Counters) AddFrames(frames int, bytes int64) {
	if c == nil || frames == 0 {
		return
	}
	c.frames.Add(int64(frames))
	c.bytes.Add(bytes)
}

// AddMalformed records n malformed packets at once (batch form).
func (c *Counters) AddMalformed(n int) {
	if c == nil || n == 0 {
		return
	}
	c.malformed.Add(int64(n))
}

// AddMutations records n successful mutations at once (batch form).
func (c *Counters) AddMutations(n int) {
	if c == nil || n == 0 {
		return
	}
	c.mutations.Add(int64(n))
}

// AddFindings records n freshly de-duplicated findings.
func (c *Counters) AddFindings(n int) {
	if c == nil || n == 0 {
		return
	}
	c.findings.Add(int64(n))
}

// CountJobStarted records one job entering a worker.
func (c *Counters) CountJobStarted() {
	if c == nil {
		return
	}
	c.jobsStarted.Add(1)
}

// CountJobDone records one job leaving a worker; failed marks it as
// errored rather than completed.
func (c *Counters) CountJobDone(failed bool) {
	if c == nil {
		return
	}
	c.jobsDone.Add(1)
	if failed {
		c.jobsFailed.Add(1)
	}
}

// Merge folds a snapshot's totals into the counters. This is the batch
// path contended farms use: each job counts into a private Counters —
// whose cache lines stay local to one worker — and the worker merges
// the totals into the farm-wide set when the job completes, so the
// per-packet hot path never bounces a shared cache line between cores.
func (c *Counters) Merge(s CounterSnapshot) {
	if c == nil {
		return
	}
	c.frames.Add(s.Frames)
	c.bytes.Add(s.Bytes)
	c.packets.Add(s.Packets)
	c.malformed.Add(s.Malformed)
	c.mutations.Add(s.Mutations)
	c.findings.Add(s.Findings)
	c.jobsStarted.Add(s.JobsStarted)
	c.jobsDone.Add(s.JobsDone)
	c.jobsFailed.Add(s.JobsFailed)
}

// CounterSnapshot is a point-in-time copy of a Counters value, shaped
// for JSON (journal samples, the /snapshot endpoint) and for the
// Prometheus text rendering.
type CounterSnapshot struct {
	Frames      int64 `json:"frames"`
	Bytes       int64 `json:"bytes"`
	Packets     int64 `json:"packets"`
	Malformed   int64 `json:"malformed"`
	Mutations   int64 `json:"mutations"`
	Findings    int64 `json:"findings"`
	JobsStarted int64 `json:"jobsStarted"`
	JobsDone    int64 `json:"jobsDone"`
	JobsFailed  int64 `json:"jobsFailed"`
}

// Snapshot reads every counter once. The reads are individually atomic
// but not mutually consistent — good enough for sampling a live run. A
// nil receiver yields the zero snapshot.
func (c *Counters) Snapshot() CounterSnapshot {
	if c == nil {
		return CounterSnapshot{}
	}
	return CounterSnapshot{
		Frames:      c.frames.Load(),
		Bytes:       c.bytes.Load(),
		Packets:     c.packets.Load(),
		Malformed:   c.malformed.Load(),
		Mutations:   c.mutations.Load(),
		Findings:    c.findings.Load(),
		JobsStarted: c.jobsStarted.Load(),
		JobsDone:    c.jobsDone.Load(),
		JobsFailed:  c.jobsFailed.Load(),
	}
}
