package corpus

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultMaxReplays bounds a minimization run. Every probe costs a full
// rig build plus a replay of the candidate sequence, so the bound is a
// wall-clock budget, not a correctness knob: hitting it returns the
// best (still reproducing) trace found so far.
const DefaultMaxReplays = 2048

// MinimizeConfig parameterises a minimization.
type MinimizeConfig struct {
	ReplayConfig
	// MaxReplays caps the number of verification replays. Zero means
	// DefaultMaxReplays; a negative cap is an error.
	MaxReplays int
}

// MinimizeResult is the outcome of delta-debugging a trace.
type MinimizeResult struct {
	// Entry is the input entry with its trace reduced to the minimized
	// operation sequence (never longer than the input's, and still
	// reproducing the entry's signature on a fresh rig).
	Entry Entry
	// Before and After are the operation counts.
	Before, After int
	// Replays is the number of verification replays performed.
	Replays int
}

// probeOutcome is one candidate's verdict.
type probeOutcome struct {
	ok  bool
	err error
}

// Minimize delta-debugs an entry's trace: it searches for a minimal
// operation subsequence that still reproduces the entry's signature on
// a fresh rig, using the classic ddmin reduce-to-complement loop. The
// input entry must itself reproduce — a trace that does not reproduce
// has nothing to minimize and is reported as an error.
//
// The complement probes of each granularity round run concurrently,
// GOMAXPROCS at a time. Each probe replays on its own rig, and results
// are judged in candidate order, so the chosen witness — and the final
// trace — match the sequential algorithm's at every worker count. A
// probe replays the current trace in place, skipping the chunk its
// candidate drops, and only the winning candidate is copied out, so a
// round costs no memory per candidate beyond its verdict.
func Minimize(e Entry, cfg MinimizeConfig) (*MinimizeResult, error) {
	maxReplays := cfg.MaxReplays
	switch {
	case maxReplays < 0:
		return nil, fmt.Errorf("corpus: negative MaxReplays %d", maxReplays)
	case maxReplays == 0:
		maxReplays = DefaultMaxReplays
	}
	res := &MinimizeResult{Entry: e, Before: len(e.Trace.Ops)}

	// probe replays ops without ops[from:to].
	probe := func(ops Ops, from, to int) probeOutcome {
		candidate := e
		candidate.Trace.Ops = ops
		r, err := replay(candidate, cfg.ReplayConfig, from, to)
		if err != nil {
			return probeOutcome{err: err}
		}
		return probeOutcome{ok: r.Reproduced}
	}

	res.Replays++
	if out := probe(e.Trace.Ops, 0, 0); out.err != nil {
		return nil, out.err
	} else if !out.ok {
		return nil, fmt.Errorf("corpus: trace for %v does not reproduce; nothing to minimize", e.Signature)
	}

	// ddmin over complements: drop one of n chunks at a time; on
	// success keep the reduced sequence at coarser granularity, on a
	// full failed sweep refine the granularity until chunks are single
	// operations.
	ops := e.Trace.Ops
	n := 2
	for len(ops) >= 2 && res.Replays < maxReplays {
		chunk := (len(ops) + n - 1) / n
		// Candidate i drops ops[i*chunk : (i+1)*chunk], clipped to the
		// trace. The whole round launches together, so the budget caps
		// the round's fan-out, not individual probes mid-sweep.
		dropped := func(i int) (int, int) { return i * chunk, min((i+1)*chunk, len(ops)) }
		candidates := min((len(ops)+chunk-1)/chunk, maxReplays-res.Replays)

		outcomes := make([]probeOutcome, candidates)
		var next atomic.Int64
		var wg sync.WaitGroup
		for range min(runtime.GOMAXPROCS(0), candidates) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < candidates; i = int(next.Add(1) - 1) {
					from, to := dropped(i)
					outcomes[i] = probe(ops, from, to)
				}
			}()
		}
		wg.Wait()
		res.Replays += candidates

		// Judge in candidate order: the lowest-index success is the
		// witness (and the first error surfaces), exactly as the
		// sequential sweep would have chosen.
		reduced := false
		for i, out := range outcomes {
			if out.err != nil {
				return nil, out.err
			}
			if out.ok {
				from, to := dropped(i)
				ops = slices.Concat(ops[:from], ops[to:])
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(ops) {
				break
			}
			n = min(2*n, len(ops))
		}
	}

	res.Entry.Trace.Ops = ops
	res.After = len(ops)
	return res, nil
}
