package corpus

import (
	"fmt"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/sm"
	"l2fuzz/internal/core"
)

// Op is one recorded client operation of a repro trace: a successful
// page, a link drop, or a transmitted wire packet.
type Op = host.TraceOp

// Trace is the recorded repro recipe of one finding: the seed and
// target it came from, the state and port under test, and the ordered
// operation sequence that drove the target from a fresh rig into the
// crash.
type Trace struct {
	// Seed is the fuzzer seed of the run that recorded the trace.
	Seed int64 `json:"seed"`
	// Target is the target spec name the trace was recorded against — a
	// catalog ID ("D1".."D8") or a custom spec name.
	Target string `json:"target"`
	// State is the L2CAP state under test at detection.
	State sm.State `json:"state"`
	// PSM is the service port under test at detection.
	PSM l2cap.PSM `json:"psm"`
	// Ops is the ordered operation sequence. Replaying it against a
	// fresh rig of the same target reproduces the finding. A loaded
	// trace holds its ops in one slice and its send data in one buffer
	// (see Ops.UnmarshalJSON); a []Op such as a recorder's snapshot is
	// assignable to it.
	Ops Ops `json:"ops"`
	// Truncated reports the recorder's limit was hit: the sequence is
	// missing its tail and cannot replay faithfully.
	Truncated bool `json:"truncated,omitempty"`
}

// Replayable reports whether the trace carries a complete operation
// sequence a fresh rig can be driven with.
func (t Trace) Replayable() bool { return len(t.Ops) > 0 && !t.Truncated }

// Entry is one persisted finding: the de-duplication signature it is
// stored under, the fuzzer kind that found it, the finding itself and
// its repro trace.
type Entry struct {
	// Signature is the finding's identity and the store key.
	Signature core.Signature `json:"signature"`
	// Kind names the fuzzer kind that produced the finding (the fleet's
	// kind string, e.g. "L2Fuzz", "RFCOMM", "Campaign"). Replay uses it
	// to build the matching rig variant and to classify the replayed
	// crash the way that kind's detector would.
	Kind string `json:"kind"`
	// Finding is the original detection. Its in-memory Trace field is
	// not persisted; the canonical trace lives in Trace below.
	Finding core.Finding `json:"finding"`
	// Trace is the recorded repro trace.
	Trace Trace `json:"trace"`
	// TargetSpec is the target of an entry recorded against a custom,
	// non-catalog target, in the struct form journals and the proc
	// worker wire carry, so the entry replays on its own. Nil for
	// catalog targets, which replay by ID. It is declared after Trace:
	// Store.Put streams the ops in place of the first "ops" key.
	TargetSpec *device.Spec `json:"targetSpec,omitempty"`
}

// Validate checks the entry is storable: a classified signature and a
// trace that names its target.
func (e Entry) Validate() error {
	if e.Signature.Class == core.ErrNone {
		return fmt.Errorf("corpus: entry with unclassified signature %v", e.Signature)
	}
	if e.Trace.Target == "" {
		return fmt.Errorf("corpus: entry %v names no target", e.Signature)
	}
	return nil
}
