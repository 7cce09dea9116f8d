package sm

import (
	"fmt"

	"l2fuzz/internal/bt/l2cap"
)

// Event is a stimulus to the channel state machine: either the arrival of
// a signaling command (EvRecv*) or an internal completion raised by the
// host stack itself (EvLocal*).
type Event uint8

// Machine events.
const (
	// EvRecvConnectReq is the arrival of a Connection Request.
	EvRecvConnectReq Event = iota + 1
	// EvRecvConnectRsp is the arrival of a Connection Response.
	EvRecvConnectRsp
	// EvRecvConfigReq is the arrival of a Configuration Request.
	EvRecvConfigReq
	// EvRecvConfigReqEFS is the arrival of a Configuration Request
	// carrying an extended flow specification, which forces lockstep
	// configuration.
	EvRecvConfigReqEFS
	// EvRecvConfigRsp is the arrival of a Configuration Response.
	EvRecvConfigRsp
	// EvRecvDisconnectReq is the arrival of a Disconnection Request.
	EvRecvDisconnectReq
	// EvRecvDisconnectRsp is the arrival of a Disconnection Response.
	EvRecvDisconnectRsp
	// EvRecvCreateReq is the arrival of a Create Channel Request.
	EvRecvCreateReq
	// EvRecvCreateRsp is the arrival of a Create Channel Response.
	EvRecvCreateRsp
	// EvRecvMoveReq is the arrival of a Move Channel Request.
	EvRecvMoveReq
	// EvRecvMoveRsp is the arrival of a Move Channel Response.
	EvRecvMoveRsp
	// EvRecvMoveConfirmReq is the arrival of a Move Confirmation Request.
	EvRecvMoveConfirmReq
	// EvRecvMoveConfirmRsp is the arrival of a Move Confirmation
	// acknowledgement.
	EvRecvMoveConfirmRsp
	// EvLocalAccept is the upper layer accepting a pending connection,
	// creation, move or disconnection.
	EvLocalAccept
	// EvLocalSendConfigReq is the stack emitting its own Configuration
	// Request.
	EvLocalSendConfigReq
	// EvLocalFinalRsp is the stack completing a lockstep configuration
	// decision (sending the final response).
	EvLocalFinalRsp
	// EvLocalOpenReq is the upper layer initiating an outbound connection
	// (device acting as initiator).
	EvLocalOpenReq
)

// eventNames is indexed by event, so naming one neither allocates nor
// hashes.
var eventNames = [...]string{
	EvRecvConnectReq:     "RecvConnectReq",
	EvRecvConnectRsp:     "RecvConnectRsp",
	EvRecvConfigReq:      "RecvConfigReq",
	EvRecvConfigReqEFS:   "RecvConfigReqEFS",
	EvRecvConfigRsp:      "RecvConfigRsp",
	EvRecvDisconnectReq:  "RecvDisconnectReq",
	EvRecvDisconnectRsp:  "RecvDisconnectRsp",
	EvRecvCreateReq:      "RecvCreateReq",
	EvRecvCreateRsp:      "RecvCreateRsp",
	EvRecvMoveReq:        "RecvMoveReq",
	EvRecvMoveRsp:        "RecvMoveRsp",
	EvRecvMoveConfirmReq: "RecvMoveConfirmReq",
	EvRecvMoveConfirmRsp: "RecvMoveConfirmRsp",
	EvLocalAccept:        "LocalAccept",
	EvLocalSendConfigReq: "LocalSendConfigReq",
	EvLocalFinalRsp:      "LocalFinalRsp",
	EvLocalOpenReq:       "LocalOpenReq",
}

func (e Event) String() string {
	if int(e) < len(eventNames) && eventNames[e] != "" {
		return eventNames[e]
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// RecvEvent maps an incoming command code to its machine event; ok is
// false for codes that never drive channel transitions (echo,
// information, credit and parameter-update commands are connectionless or
// data-plane concerns).
func RecvEvent(code l2cap.CommandCode, lockstep bool) (Event, bool) {
	switch code {
	case l2cap.CodeConnectionReq:
		return EvRecvConnectReq, true
	case l2cap.CodeConnectionRsp:
		return EvRecvConnectRsp, true
	case l2cap.CodeConfigurationReq:
		if lockstep {
			return EvRecvConfigReqEFS, true
		}
		return EvRecvConfigReq, true
	case l2cap.CodeConfigurationRsp:
		return EvRecvConfigRsp, true
	case l2cap.CodeDisconnectionReq:
		return EvRecvDisconnectReq, true
	case l2cap.CodeDisconnectionRsp:
		return EvRecvDisconnectRsp, true
	case l2cap.CodeCreateChannelReq:
		return EvRecvCreateReq, true
	case l2cap.CodeCreateChannelRsp:
		return EvRecvCreateRsp, true
	case l2cap.CodeMoveChannelReq:
		return EvRecvMoveReq, true
	case l2cap.CodeMoveChannelRsp:
		return EvRecvMoveRsp, true
	case l2cap.CodeMoveChannelConfirmReq:
		return EvRecvMoveConfirmReq, true
	case l2cap.CodeMoveChannelConfirmRsp:
		return EvRecvMoveConfirmRsp, true
	default:
		return 0, false
	}
}

// Action is what the machine instructs the host stack to do alongside a
// transition.
type Action uint8

// Machine actions.
const (
	// ActNone performs no protocol output.
	ActNone Action = iota + 1
	// ActDeliverToUpper hands the event to the upper layer for a decision.
	ActDeliverToUpper
	// ActSendConnectRsp emits a Connection Response.
	ActSendConnectRsp
	// ActSendCreateRsp emits a Create Channel Response.
	ActSendCreateRsp
	// ActSendConfigRsp emits a Configuration Response.
	ActSendConfigRsp
	// ActSendConfigRspPending emits a Configuration Response with result
	// "pending" (lockstep).
	ActSendConfigRspPending
	// ActSendConfigReq emits the local Configuration Request.
	ActSendConfigReq
	// ActSendDisconnectRsp emits a Disconnection Response.
	ActSendDisconnectRsp
	// ActSendMoveRsp emits a Move Channel Response.
	ActSendMoveRsp
	// ActSendMoveConfirmRsp emits a Move Confirmation acknowledgement.
	ActSendMoveConfirmRsp
	// ActSendConnectReq emits a Connection Request (initiator role).
	ActSendConnectReq
	// ActReject emits a Command Reject: the event is invalid in the
	// current state.
	ActReject
)

// actionNames is indexed by action, so naming one neither allocates
// nor hashes.
var actionNames = [...]string{
	ActNone:                 "None",
	ActDeliverToUpper:       "DeliverToUpper",
	ActSendConnectRsp:       "SendConnectRsp",
	ActSendCreateRsp:        "SendCreateRsp",
	ActSendConfigRsp:        "SendConfigRsp",
	ActSendConfigRspPending: "SendConfigRspPending",
	ActSendConfigReq:        "SendConfigReq",
	ActSendDisconnectRsp:    "SendDisconnectRsp",
	ActSendMoveRsp:          "SendMoveRsp",
	ActSendMoveConfirmRsp:   "SendMoveConfirmRsp",
	ActSendConnectReq:       "SendConnectReq",
	ActReject:               "Reject",
}

func (a Action) String() string {
	if int(a) < len(actionNames) && actionNames[a] != "" {
		return actionNames[a]
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// Transition is one edge of the state machine.
type Transition struct {
	// Action is the protocol output accompanying the edge.
	Action Action
	// Next is the state after the edge.
	Next State
}

// transitions is the acceptor-perspective transition table: the paper's
// Table II generalised to every state. Events absent from a state's map
// are invalid there and answered with a Command Reject (Table II's
// "Reject" rows). The table is built once and never mutated.
var transitions = buildTransitions()

// table is transitions indexed by [state][event], so that Lookup — run
// on every signaling command a device handles — indexes instead of
// hashing twice. A zero Action (no Action constant is zero) marks an
// invalid event.
var table = indexTransitions(transitions)

func indexTransitions(m map[State]map[Event]Transition) (t [NumStates + 1][EvLocalOpenReq + 1]Transition) {
	for state, edges := range m {
		for event, tr := range edges {
			t[state][event] = tr
		}
	}
	return t
}

func buildTransitions() map[State]map[Event]Transition {
	return map[State]map[Event]Transition{
		StateClosed: {
			// Acceptor receives a connect: hand to the upper layer while
			// occupying WAIT_CONNECT (Table II row 1 splits into the
			// deliver step and the EvLocalAccept completion below).
			EvRecvConnectReq: {Action: ActDeliverToUpper, Next: StateWaitConnect},
			EvRecvCreateReq:  {Action: ActDeliverToUpper, Next: StateWaitCreate},
			// Initiator role: the upper layer opens an outbound channel.
			EvLocalOpenReq: {Action: ActSendConnectReq, Next: StateWaitConnectRsp},
		},
		StateWaitConnect: {
			// Upper layer accepted: answer and enter configuration.
			EvLocalAccept: {Action: ActSendConnectRsp, Next: StateWaitConfig},
			// Duplicate connect requests are tolerated (some stacks resend).
			EvRecvConnectReq: {Action: ActDeliverToUpper, Next: StateWaitConnect},
		},
		StateWaitConnectRsp: {
			EvRecvConnectRsp: {Action: ActNone, Next: StateWaitConfig},
		},
		StateWaitCreate: {
			EvLocalAccept:   {Action: ActSendCreateRsp, Next: StateWaitConfig},
			EvRecvCreateReq: {Action: ActDeliverToUpper, Next: StateWaitCreate},
		},
		StateWaitCreateRsp: {
			EvRecvCreateRsp: {Action: ActNone, Next: StateWaitConfig},
		},
		StateWaitConfig: {
			EvRecvConfigReq:      {Action: ActSendConfigRsp, Next: StateWaitSendConfig},
			EvRecvConfigReqEFS:   {Action: ActSendConfigRspPending, Next: StateWaitIndFinalRsp},
			EvLocalSendConfigReq: {Action: ActSendConfigReq, Next: StateWaitConfigReqRsp},
			EvRecvDisconnectReq:  {Action: ActSendDisconnectRsp, Next: StateClosed},
		},
		StateWaitSendConfig: {
			EvLocalSendConfigReq: {Action: ActSendConfigReq, Next: StateWaitConfigRsp},
			EvRecvDisconnectReq:  {Action: ActSendDisconnectRsp, Next: StateClosed},
		},
		StateWaitConfigReqRsp: {
			EvRecvConfigRsp:     {Action: ActNone, Next: StateWaitConfigReq},
			EvRecvConfigReq:     {Action: ActSendConfigRsp, Next: StateWaitConfigRsp},
			EvRecvConfigReqEFS:  {Action: ActSendConfigRspPending, Next: StateWaitIndFinalRsp},
			EvRecvDisconnectReq: {Action: ActSendDisconnectRsp, Next: StateClosed},
		},
		StateWaitConfigRsp: {
			EvRecvConfigRsp:     {Action: ActNone, Next: StateOpen},
			EvRecvDisconnectReq: {Action: ActSendDisconnectRsp, Next: StateClosed},
		},
		StateWaitConfigReq: {
			EvRecvConfigReq:     {Action: ActSendConfigRsp, Next: StateOpen},
			EvRecvConfigReqEFS:  {Action: ActSendConfigRspPending, Next: StateWaitIndFinalRsp},
			EvRecvDisconnectReq: {Action: ActSendDisconnectRsp, Next: StateClosed},
		},
		StateWaitIndFinalRsp: {
			// The stack finishes its lockstep decision and sends the final
			// response.
			EvLocalFinalRsp:     {Action: ActSendConfigRsp, Next: StateOpen},
			EvRecvConfigRsp:     {Action: ActNone, Next: StateOpen},
			EvRecvDisconnectReq: {Action: ActSendDisconnectRsp, Next: StateClosed},
		},
		StateWaitFinalRsp: {
			EvRecvConfigRsp:     {Action: ActNone, Next: StateOpen},
			EvRecvDisconnectReq: {Action: ActSendDisconnectRsp, Next: StateClosed},
		},
		StateWaitControlInd: {
			EvLocalFinalRsp:     {Action: ActSendConfigRsp, Next: StateOpen},
			EvRecvDisconnectReq: {Action: ActSendDisconnectRsp, Next: StateClosed},
		},
		StateOpen: {
			// Re-configuration re-enters the configuration job.
			EvRecvConfigReq:     {Action: ActSendConfigRsp, Next: StateWaitSendConfig},
			EvRecvConfigReqEFS:  {Action: ActSendConfigRspPending, Next: StateWaitIndFinalRsp},
			EvRecvDisconnectReq: {Action: ActDeliverToUpper, Next: StateWaitDisconnect},
			EvRecvMoveReq:       {Action: ActDeliverToUpper, Next: StateWaitMove},
		},
		StateWaitDisconnect: {
			EvLocalAccept:       {Action: ActSendDisconnectRsp, Next: StateClosed},
			EvRecvDisconnectReq: {Action: ActDeliverToUpper, Next: StateWaitDisconnect},
		},
		StateWaitMove: {
			EvLocalAccept: {Action: ActSendMoveRsp, Next: StateWaitMoveConfirm},
		},
		StateWaitMoveRsp: {
			EvRecvMoveRsp: {Action: ActNone, Next: StateWaitConfirmRsp},
		},
		StateWaitMoveConfirm: {
			EvRecvMoveConfirmReq: {Action: ActSendMoveConfirmRsp, Next: StateOpen},
			EvRecvDisconnectReq:  {Action: ActSendDisconnectRsp, Next: StateClosed},
		},
		StateWaitConfirmRsp: {
			EvRecvMoveConfirmRsp: {Action: ActNone, Next: StateOpen},
		},
	}
}

// Lookup returns the transition for (state, event); ok is false when the
// event is invalid in that state, in which case a conformant stack
// answers with a Command Reject.
func Lookup(state State, event Event) (Transition, bool) {
	if int(state) >= len(table) || int(event) >= len(table[0]) {
		return Transition{}, false
	}
	t := table[state][event]
	return t, t.Action != 0
}

// ValidEvents returns the events state accepts, in ascending order.
func ValidEvents(state State) []Event {
	var out []Event
	for e := EvRecvConnectReq; e <= EvLocalOpenReq; e++ {
		if _, ok := Lookup(state, e); ok {
			out = append(out, e)
		}
	}
	return out
}

// Machine is one channel's state machine instance: a plain value, so a
// channel can embed one and reset it without allocating. The zero value
// is not usable; Reset it first, or construct one with NewMachine.
// Machine is not safe for concurrent use; the device stack serialises
// access per channel.
type Machine struct {
	state State
	// visited[:n] holds every state the machine has occupied, in first-
	// visit order, for trace-based coverage measurement. The states are
	// distinct, so NumStates entries always suffice.
	visited [NumStates]State
	n       uint8
}

// NewMachine returns a machine resting in CLOSED.
func NewMachine() *Machine {
	m := new(Machine)
	m.Reset()
	return m
}

// Reset puts the machine in CLOSED, with CLOSED its only visited state.
func (m *Machine) Reset() {
	*m = Machine{state: StateClosed, n: 1}
	m.visited[0] = StateClosed
}

// State returns the current state.
func (m *Machine) State() State { return m.state }

// Visited returns the distinct states the machine has occupied in
// first-visit order. The returned slice is a copy.
func (m *Machine) Visited() []State { return m.AppendVisited(nil) }

// AppendVisited appends the distinct states the machine has occupied, in
// first-visit order, to dst and returns the extended slice: the
// allocation-free form of Visited for callers with a reused buffer.
func (m *Machine) AppendVisited(dst []State) []State {
	return append(dst, m.visited[:m.n]...)
}

// Apply drives the machine with event. When the event is valid it returns
// the transition taken; otherwise ok is false, the state is unchanged,
// and the caller should emit a Command Reject.
func (m *Machine) Apply(event Event) (Transition, bool) {
	t, ok := Lookup(m.state, event)
	if !ok {
		return Transition{}, false
	}
	m.state = t.Next
	m.noteVisit(t.Next)
	return t, true
}

func (m *Machine) noteVisit(s State) {
	for _, v := range m.visited[:m.n] {
		if v == s {
			return
		}
	}
	m.visited[m.n] = s
	m.n++
}
