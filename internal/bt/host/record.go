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
//
// The op log is pointer-free: each op is a kind and, for a send, the
// length of its wire bytes, which are appended to fixed-size chunks that
// are never copied again. A recorded send therefore allocates nothing
// once its chunk exists, and the GC has nothing to scan. Snapshot turns
// the log back into TraceOps.
type TraceRecorder struct {
	limit     int
	ops       []opRef
	full      [][]byte // filled chunks, oldest first
	cur       []byte   // the chunk sends append to
	truncated bool
}

// traceChunk is the size of a recorder's wire-byte chunks. A send that
// does not fit in the current chunk starts a new one of
// max(traceChunk, len(wire)) bytes, so a send never straddles two.
const traceChunk = 64 << 10

// opRef is one recorded op: its kind and the length of its wire bytes
// (zero for connect and disconnect).
type opRef struct {
	kind opKind
	n    uint32
}

// opKind is a TraceOpKind in the recorder's pointer-free log.
type opKind uint8

const (
	opConnect opKind = iota
	opDisconnect
	opSend
)

// traceOpKinds maps a logged opKind back to its TraceOpKind.
var traceOpKinds = [...]TraceOpKind{opConnect: TraceConnect, opDisconnect: TraceDisconnect, opSend: TraceSend}

// NewTraceRecorder builds a recorder holding at most limit operations
// (limit <= 0 means DefaultTraceLimit).
func NewTraceRecorder(limit int) *TraceRecorder {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &TraceRecorder{limit: limit}
}

// record appends one operation with its wire bytes (nil for connect and
// disconnect), copying them into the current chunk, or marks the trace
// truncated once the limit is reached. wire may be a borrow: the
// recorder keeps only its copy.
func (r *TraceRecorder) record(kind opKind, wire []byte) {
	if len(r.ops) >= r.limit {
		r.truncated = true
		return
	}
	if len(wire) > cap(r.cur)-len(r.cur) {
		if len(r.cur) > 0 {
			r.full = append(r.full, r.cur)
		}
		r.cur = make([]byte, 0, max(traceChunk, len(wire)))
	}
	r.cur = append(r.cur, wire...)
	r.ops = append(r.ops, opRef{kind: kind, n: uint32(len(wire))})
}

// Snapshot returns a copy of the operations recorded so far (nil when
// there are none) and whether the trace is truncated. The copy is the
// caller's to keep: the send ops' Data are capacity-clipped sub-slices
// of one fresh buffer that later recording, and Reset, never reach.
// Connect and disconnect ops carry nil Data.
func (r *TraceRecorder) Snapshot() ([]TraceOp, bool) {
	if len(r.ops) == 0 {
		return nil, r.truncated
	}
	size := len(r.cur)
	for _, c := range r.full {
		size += len(c)
	}
	buf := make([]byte, 0, size)
	for _, c := range r.full {
		buf = append(buf, c...)
	}
	buf = append(buf, r.cur...)
	ops := make([]TraceOp, len(r.ops))
	off := 0
	for i, ref := range r.ops {
		ops[i].Kind = traceOpKinds[ref.kind]
		if ref.n > 0 {
			end := off + int(ref.n)
			ops[i].Data = buf[off:end:end]
			off = end
		}
	}
	return ops, r.truncated
}

// Reset discards everything recorded so far and clears the truncation
// mark: the start of a new trace epoch. Call it whenever the target's
// state is externally reset (e.g. the campaign runner's automatic
// device reset), so traces never span a state change no packet caused.
// The full chunks are dropped and the current one is rewound; earlier
// snapshots hold their own copies, so reuse cannot reach them.
func (r *TraceRecorder) Reset() {
	r.ops = r.ops[:0]
	r.full = nil
	r.cur = r.cur[:0]
	r.truncated = false
}

// SetRecorder attaches a trace recorder to the client (nil detaches).
// A recorded send copies its wire bytes into the recorder's current
// chunk and logs a pointer-free op: once the chunk exists, recording
// allocates nothing. The client marshals into a reused scratch buffer,
// so the recorder must keep a copy of its own.
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
		// scratch buffer; record copies it into the trace's chunks.
		c.recorder.record(opSend, wire)
	}
	if err := c.ctrl.SendL2CAP(h, wire); err != nil {
		c.Disconnect(peer)
		return fmt.Errorf("%w: %v (%v)", ErrNotConnected, peer, err)
	}
	return nil
}
