package host

import (
	"fmt"

	"l2fuzz/internal/bt/radio"
)

// Trace recording: an optional tap on the client that captures every
// operation with an over-the-air effect — successful pages, link drops
// and transmitted L2CAP frames — in order. The simulated targets are
// deterministic functions of that operation sequence, so a recorded
// trace replayed from a fresh rig drives the target through the same
// state trajectory, which is what makes findings reproducible artefacts
// (the corpus subsystem's repro traces).

// TraceOpKind discriminates recorded client operations.
type TraceOpKind string

// The recorded operation kinds.
const (
	// TraceConnect is a successful baseband page to the peer.
	TraceConnect TraceOpKind = "connect"
	// TraceDisconnect is a baseband link drop (including the implicit
	// drop a failed transmit performs).
	TraceDisconnect TraceOpKind = "disconnect"
	// TraceSend is one transmitted L2CAP frame; Data holds the wire
	// bytes.
	TraceSend TraceOpKind = "send"
)

// TraceOp is one recorded client operation.
type TraceOp struct {
	// Kind says what the client did.
	Kind TraceOpKind `json:"op"`
	// Data is the L2CAP wire frame for TraceSend ops, nil otherwise.
	Data []byte `json:"data,omitempty"`
}

// DefaultTraceLimit bounds a recorder whose constructor was given no
// explicit limit. A trace that outgrows its limit is marked truncated
// and stops growing: a partial trace cannot replay faithfully, so
// recording more would only waste memory.
const DefaultTraceLimit = 1 << 20

// TraceRecorder accumulates the client's operation sequence. Attach one
// with Client.SetRecorder; snapshot it when a finding lands.
type TraceRecorder struct {
	limit     int
	ops       []TraceOp
	truncated bool
}

// NewTraceRecorder builds a recorder holding at most limit operations
// (limit <= 0 means DefaultTraceLimit).
func NewTraceRecorder(limit int) *TraceRecorder {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &TraceRecorder{limit: limit}
}

// record appends one operation, or marks the trace truncated once the
// limit is reached.
func (r *TraceRecorder) record(op TraceOp) {
	if len(r.ops) >= r.limit {
		r.truncated = true
		return
	}
	r.ops = append(r.ops, op)
}

// Len returns the number of recorded operations.
func (r *TraceRecorder) Len() int { return len(r.ops) }

// EnsureLimit raises the recorder's cap to at least n operations. A
// runner that discovers its real traffic budget only after resolving
// its configuration (e.g. a farm variant hook raising the packet cap)
// calls this so the trace is not truncated at an estimate made before
// the hooks ran. The cap can only grow: shrinking it could retroactively
// invalidate an already-recorded prefix.
func (r *TraceRecorder) EnsureLimit(n int) {
	if n > r.limit {
		r.limit = n
	}
}

// Truncated reports whether the trace outgrew the recorder's limit.
func (r *TraceRecorder) Truncated() bool { return r.truncated }

// Snapshot returns a copy of the operations recorded so far and whether
// the trace is truncated. The copy is the caller's to keep: later
// recording does not reach it.
func (r *TraceRecorder) Snapshot() ([]TraceOp, bool) {
	return append([]TraceOp(nil), r.ops...), r.truncated
}

// Reset discards everything recorded so far and clears the truncation
// mark: the start of a new trace epoch. Call it whenever the target's
// state is externally reset (e.g. the campaign runner's automatic
// device reset), so traces never span a state change no packet caused.
func (r *TraceRecorder) Reset() {
	r.ops = r.ops[:0]
	r.truncated = false
}

// SetRecorder attaches a trace recorder to the client (nil detaches).
// Recording costs one slice append plus one wire-buffer copy per send:
// the client marshals into a reused scratch buffer, so the recorder —
// which keeps its ops indefinitely — must take its own copy.
func (c *Client) SetRecorder(r *TraceRecorder) { c.recorder = r }

// Recorder returns the attached trace recorder, or nil.
func (c *Client) Recorder() *TraceRecorder { return c.recorder }

// SendRaw transmits pre-marshaled L2CAP wire bytes to peer: the replay
// primitive. A recorded TraceSend op's Data goes back on the air
// exactly as captured, byte for byte, with no re-encode step that could
// normalise away the malformations the trace exists to reproduce.
func (c *Client) SendRaw(peer radio.BDAddr, wire []byte) error {
	h, ok := c.handle(peer)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotConnected, peer)
	}
	if c.recorder != nil {
		// wire may be (and on the Send path is) a borrow of the client's
		// scratch buffer; the trace outlives it, so copy.
		c.recorder.record(TraceOp{Kind: TraceSend, Data: append([]byte(nil), wire...)})
	}
	if err := c.ctrl.SendL2CAP(h, wire); err != nil {
		c.Disconnect(peer)
		return fmt.Errorf("%w: %v (%v)", ErrNotConnected, peer, err)
	}
	return nil
}
