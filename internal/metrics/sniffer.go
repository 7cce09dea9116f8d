package metrics

import (
	"sort"
	"time"

	"l2fuzz/internal/bt/hci"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
)

// SamplePoint is one point of the cumulative series behind Figures 8/9.
type SamplePoint struct {
	// X is the cumulative packet count on the axis (transmitted packets
	// for the MP series, received packets for the PR series).
	X int
	// Y is the cumulative count of interest (malformed or rejections).
	Y int
}

// Sniffer is a passive trace analyser tapping one radio medium from the
// tester's perspective.
type Sniffer struct {
	tester radio.BDAddr

	// reasm holds one reassembler per (from,to) direction, scanned
	// linearly: a rig's sniffer sees two directions, so hashing the
	// 12-byte key on every frame would cost more than the scan.
	reasm []dirReasm

	// counters
	transmitted int
	malformed   int
	received    int
	rejections  int
	invalidTx   int

	startTime time.Duration
	lastTime  time.Duration
	started   bool

	// mpSeries/prSeries record (X, Y) after every relevant packet.
	mpSeries []SamplePoint
	prSeries []SamplePoint

	// allocation tracking: channel endpoints observed as legitimately
	// allocated (device side and tester side), plus in-flight requests.
	allocated map[l2cap.CID]bool
	// pendingTx maps a tester request's signaling identifier to its
	// command code; 0 (no command) marks a free slot.
	pendingTx [256]l2cap.CommandCode

	// Reused decode scratch: taps never nest, so one of each suffices.
	dec       l2cap.Decoder
	sigFrames []l2cap.Frame
	core      l2cap.CoreFields // isMalformed's AppendCoreFields scratch

	// rejectedByCode correlates received Command Reject packets back to
	// the command code of the tester request they answered (matched via
	// pendingTx by signaling identifier). Rejects whose identifier
	// matches no observed request land under code 0.
	rejectedByCode [256]int

	states *StateInferencer
}

type dirReasm struct {
	from, to radio.BDAddr
	r        *hci.Reassembler
}

// NewSniffer attaches a sniffer to the medium, observing traffic between
// the tester and everything else.
func NewSniffer(m *radio.Medium, tester radio.BDAddr) *Sniffer {
	s := &Sniffer{
		tester:    tester,
		allocated: make(map[l2cap.CID]bool),
		states:    NewStateInferencer(),
	}
	m.AddTap(s.onFrame)
	return s
}

// onFrame consumes one baseband frame from the tap.
func (s *Sniffer) onFrame(f radio.TapFrame) {
	if f.From != s.tester && f.To != s.tester {
		return // third-party traffic
	}
	if !s.started {
		s.started = true
		s.startTime = f.Time
	}
	s.lastTime = f.Time

	acl, err := hci.ParseACL(f.Data)
	if err != nil {
		return
	}
	frame, done, err := s.reassembler(f.From, f.To).Push(acl)
	if err != nil || !done {
		return
	}
	if f.From == s.tester {
		s.onTx(frame)
	} else {
		s.onRx(frame)
	}
}

// reassembler returns the reassembler of the from→to direction.
func (s *Sniffer) reassembler(from, to radio.BDAddr) *hci.Reassembler {
	for _, d := range s.reasm {
		if d.from == from && d.to == to {
			return d.r
		}
	}
	r := &hci.Reassembler{}
	s.reasm = append(s.reasm, dirReasm{from: from, to: to, r: r})
	return r
}

// onTx classifies one tester-to-target L2CAP frame.
func (s *Sniffer) onTx(raw []byte) {
	s.transmitted++
	defer func() {
		s.mpSeries = append(s.mpSeries, SamplePoint{X: s.transmitted, Y: s.malformed})
	}()

	pkt, err := l2cap.ParsePacket(raw)
	if err != nil || !pkt.IsSignaling() {
		return // data-plane traffic (e.g. SDP) is normal
	}
	frames, err := l2cap.AppendSignals(s.sigFrames[:0], pkt.Payload)
	s.sigFrames = frames[:0]
	if err != nil {
		s.invalidTx++
		return
	}
	// One malformed verdict per packet at most, but every decodable
	// frame still feeds the state inferencer: BR/EDR packs several
	// commands into one C-frame, and a malformed first command must not
	// hide the later ones from the coverage accounting.
	verdict := false
	for _, fr := range frames {
		cmd, err := s.dec.Decode(fr)
		if err != nil {
			s.invalidTx++
			continue
		}
		s.pendingTx[fr.Identifier] = fr.Code
		s.states.ObserveTx(cmd)
		if !verdict && s.isMalformed(fr, cmd) {
			s.malformed++
			verdict = true
		}
	}
}

// isMalformed implements the valid-malformed classification.
func (s *Sniffer) isMalformed(fr l2cap.Frame, cmd l2cap.Command) bool {
	if len(fr.Tail) > 0 {
		return true
	}
	s.core = cmd.AppendCoreFields(s.core)
	core := s.core
	if core.PSM != nil && l2cap.IsAbnormalPSM(*core.PSM) {
		return true
	}
	// A channel reference the trace never saw allocated is a core-field
	// anomaly — except on connection-style requests, whose SCID is the
	// sender allocating a fresh endpoint.
	switch cmd.Code() {
	case l2cap.CodeConnectionReq, l2cap.CodeCreateChannelReq,
		l2cap.CodeEchoReq, l2cap.CodeEchoRsp,
		l2cap.CodeInformationReq, l2cap.CodeInformationRsp:
		return false
	}
	for _, cid := range core.CIDs {
		if !s.allocated[*cid] {
			return true
		}
	}
	return false
}

// onRx classifies one target-to-tester L2CAP frame.
func (s *Sniffer) onRx(raw []byte) {
	s.received++
	defer func() {
		s.prSeries = append(s.prSeries, SamplePoint{X: s.received, Y: s.rejections})
	}()

	pkt, err := l2cap.ParsePacket(raw)
	if err != nil || !pkt.IsSignaling() {
		return
	}
	frames, err := l2cap.AppendSignals(s.sigFrames[:0], pkt.Payload)
	s.sigFrames = frames[:0]
	if err != nil {
		return
	}
	// As on the Tx side: one rejection verdict per packet, every frame
	// observed.
	verdict := false
	for _, fr := range frames {
		cmd, err := s.dec.Decode(fr)
		if err != nil {
			continue
		}
		s.trackAllocations(cmd)
		s.states.ObserveRx(cmd)
		if isRejection(cmd) {
			s.correlateReject(fr)
			if !verdict {
				s.rejections++
				verdict = true
			}
		}
	}
}

// correlateReject attributes one received Command Reject to the tester
// request it answers, by signaling identifier.
func (s *Sniffer) correlateReject(fr l2cap.Frame) {
	code := s.pendingTx[fr.Identifier]
	s.pendingTx[fr.Identifier] = 0
	s.rejectedByCode[code]++ // code is 0 for unmatched rejects
}

// trackAllocations learns legitimate channel endpoints from responses.
func (s *Sniffer) trackAllocations(cmd l2cap.Command) {
	switch rsp := cmd.(type) {
	case *l2cap.ConnectionRsp:
		if rsp.Result == l2cap.ConnResultSuccess {
			s.allocated[rsp.DCID] = true
			s.allocated[rsp.SCID] = true
		}
	case *l2cap.CreateChannelRsp:
		if rsp.Result == l2cap.ConnResultSuccess {
			s.allocated[rsp.DCID] = true
			s.allocated[rsp.SCID] = true
		}
	}
}

// isRejection classifies a received command as a rejection packet. The
// paper counts Command Reject packets — the explicit "your packet was
// not accepted" signal a Wireshark filter isolates. Negative results in
// otherwise well-formed responses (PSM not supported, security block)
// are normal protocol conversation, not rejections of the packet itself.
func isRejection(cmd l2cap.Command) bool {
	_, ok := cmd.(*l2cap.CommandReject)
	return ok
}

// Summary is the measured outcome of one fuzzing run.
type Summary struct {
	// Transmitted counts tester-to-target L2CAP frames.
	Transmitted int
	// Malformed counts valid malformed transmitted packets.
	Malformed int
	// InvalidTx counts undecodable transmitted signaling packets.
	InvalidTx int
	// Received counts target-to-tester L2CAP frames.
	Received int
	// Rejections counts rejection packets among them.
	Rejections int
	// MPRatio is Malformed / Transmitted.
	MPRatio float64
	// PRRatio is Rejections / Received.
	PRRatio float64
	// MutationEfficiency is MPRatio × (1 − PRRatio).
	MutationEfficiency float64
	// PacketsPerSecond is Transmitted divided by the simulated capture
	// span.
	PacketsPerSecond float64
	// Span is the simulated capture span (first to last observed frame).
	Span time.Duration
	// States is the trace-inferred visited-state set, as sorted state
	// names. Carrying the set (not just its size) lets Merge union
	// coverage exactly across independent captures.
	States []string
	// StatesCovered is len(States), kept as a field for rendering and
	// comparison convenience.
	StatesCovered int
}

// Summary computes the metrics over everything observed so far.
func (s *Sniffer) Summary() Summary {
	sum := Summary{
		Transmitted: s.transmitted,
		Malformed:   s.malformed,
		InvalidTx:   s.invalidTx,
		Received:    s.received,
		Rejections:  s.rejections,
	}
	if s.transmitted > 0 {
		sum.MPRatio = float64(s.malformed) / float64(s.transmitted)
	}
	if s.received > 0 {
		sum.PRRatio = float64(s.rejections) / float64(s.received)
	}
	sum.MutationEfficiency = sum.MPRatio * (1 - sum.PRRatio)
	sum.Span = s.lastTime - s.startTime
	if span := sum.Span.Seconds(); span > 0 {
		sum.PacketsPerSecond = float64(s.transmitted) / span
	}
	for _, st := range s.states.Visited() {
		sum.States = append(sum.States, st.String())
	}
	sort.Strings(sum.States)
	sum.StatesCovered = len(sum.States)
	return sum
}

// RejectionsByCode returns, per tester command code, how many received
// Command Reject frames answered a request of that code (matched by
// signaling identifier). Rejects whose identifier matched no observed
// request are keyed under code 0. The attribution is per frame, so a
// packet packing several Command Rejects contributes each of them and
// the totals can exceed Summary.Rejections, which stays one verdict
// per packet.
func (s *Sniffer) RejectionsByCode() map[l2cap.CommandCode]int {
	out := make(map[l2cap.CommandCode]int)
	for code, n := range s.rejectedByCode {
		if n > 0 {
			out[l2cap.CommandCode(code)] = n
		}
	}
	return out
}

// MPSeries returns the cumulative malformed-vs-transmitted series sampled
// every step packets (Figure 8). A step below 1 returns every point.
func (s *Sniffer) MPSeries(step int) []SamplePoint { return sample(s.mpSeries, step) }

// PRSeries returns the cumulative rejections-vs-received series sampled
// every step packets (Figure 9).
func (s *Sniffer) PRSeries(step int) []SamplePoint { return sample(s.prSeries, step) }

// StatesVisited returns the trace-inferred visited states.
func (s *Sniffer) StatesVisited() []VisitedState { return s.states.Visited() }

func sample(points []SamplePoint, step int) []SamplePoint {
	if step < 1 {
		step = 1
	}
	var out []SamplePoint
	for i := step - 1; i < len(points); i += step {
		out = append(out, points[i])
	}
	if n := len(points); n > 0 && (len(out) == 0 || out[len(out)-1].X != points[n-1].X) {
		out = append(out, points[n-1])
	}
	return out
}
