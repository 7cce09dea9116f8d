package core

import (
	"io"
	"time"
)

// Config parameterises an L2Fuzz run. A zero field means its default,
// so the zero value runs L2Fuzz as published at seed 0; a negative
// MaxPackets fails Run.
type Config struct {
	// Seed drives every random choice; equal seeds give equal runs.
	Seed int64
	// MaxPackets caps the run; zero means DefaultMaxPackets. The run also
	// ends when a vulnerability is detected.
	MaxPackets int
	// LogWriter receives the run log; nil discards it.
	LogWriter io.Writer
	// Ablation switches off design choices for the §IV-D study; the
	// zero value runs L2Fuzz as published.
	Ablation
}

// Ablation names the paper's design choices a run switches off, one
// bool each, for the §IV-D design-choice study. It is plain data, so a
// farm ships it to worker processes inside its variants.
type Ablation struct {
	// NoStateGuiding disables job-valid command selection: commands are
	// drawn uniformly from all 26 codes in every state.
	NoStateGuiding bool `json:"noStateGuiding"`
	// MutateAllFields widens mutation beyond MC: dependent fields and MA
	// fields are scrambled too, reproducing the dumb-mutation strategy
	// the paper argues against.
	MutateAllFields bool `json:"mutateAllFields"`
	// NoGarbage suppresses the garbage tail.
	NoGarbage bool `json:"noGarbage"`
}

// The fuzzing constants, chosen to land the simulated pps near the
// paper's measurement.
const (
	// DefaultPacketsPerCommand is n in Algorithm 1: malformed packets
	// generated per valid command per state visit.
	DefaultPacketsPerCommand = 64
	// DefaultMaxGarbage bounds the appended garbage tail, keeping test
	// packets under the signaling MTU.
	DefaultMaxGarbage = 16
	// DefaultThinkTime is the fuzzer-side processing cost charged to the
	// simulated clock per generated packet; together with the radio
	// timing it sets the packets-per-second rate (§IV-C reports 524.27
	// pps for L2Fuzz).
	DefaultThinkTime = 450 * time.Microsecond
	// DefaultPingEvery runs the echo liveness probe after every
	// DefaultPingEvery test packets (and always after a send error).
	DefaultPingEvery = 3
	// DefaultMaxPackets bounds a run that finds nothing.
	DefaultMaxPackets = 6_000_000
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxPackets == 0 {
		c.MaxPackets = DefaultMaxPackets
	}
	return c
}
