package corpus

import (
	"fmt"
	"runtime"
	"sync"
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
// trace — match the sequential algorithm's at every worker count.
func Minimize(e Entry, cfg MinimizeConfig) (*MinimizeResult, error) {
	maxReplays := cfg.MaxReplays
	switch {
	case maxReplays < 0:
		return nil, fmt.Errorf("corpus: negative MaxReplays %d", maxReplays)
	case maxReplays == 0:
		maxReplays = DefaultMaxReplays
	}
	res := &MinimizeResult{Entry: e, Before: len(e.Trace.Ops)}

	probe := func(ops []Op) probeOutcome {
		candidate := e
		candidate.Trace.Ops = ops
		r, err := Replay(candidate, cfg.ReplayConfig)
		if err != nil {
			return probeOutcome{err: err}
		}
		return probeOutcome{ok: r.Reproduced}
	}

	res.Replays++
	if out := probe(e.Trace.Ops); out.err != nil {
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
		var candidates [][]Op
		for start := 0; start < len(ops); start += chunk {
			end := min(start+chunk, len(ops))
			candidate := make([]Op, 0, len(ops)-(end-start))
			candidate = append(candidate, ops[:start]...)
			candidate = append(candidate, ops[end:]...)
			if len(candidate) == len(ops) {
				continue
			}
			candidates = append(candidates, candidate)
		}
		// The whole round launches together, so the budget caps the
		// round's fan-out, not individual probes mid-sweep.
		if remaining := maxReplays - res.Replays; len(candidates) > remaining {
			candidates = candidates[:remaining]
		}

		outcomes := make([]probeOutcome, len(candidates))
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i := range candidates {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				outcomes[i] = probe(candidates[i])
			}(i)
		}
		wg.Wait()
		res.Replays += len(candidates)

		// Judge in candidate order: the lowest-index success is the
		// witness (and the first error surfaces), exactly as the
		// sequential sweep would have chosen.
		reduced := false
		for i, out := range outcomes {
			if out.err != nil {
				return nil, out.err
			}
			if out.ok {
				ops = candidates[i]
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
