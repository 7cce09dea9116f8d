package sm

import "fmt"

// State is one of the 19 L2CAP channel states of Bluetooth 5.2.
type State uint8

// The 19 L2CAP states (paper Figure 2).
const (
	// StateClosed is the resting state: no channel exists.
	StateClosed State = iota + 1
	// StateWaitConnect is occupied by an acceptor that received a
	// Connection Request and is waiting for its upper layer to decide.
	StateWaitConnect
	// StateWaitConnectRsp is occupied by an initiator that sent a
	// Connection Request and awaits the response.
	StateWaitConnectRsp
	// StateWaitCreate is the acceptor-side Create Channel analogue of
	// StateWaitConnect.
	StateWaitCreate
	// StateWaitCreateRsp is the initiator-side Create Channel analogue of
	// StateWaitConnectRsp.
	StateWaitCreateRsp
	// StateWaitConfig is the configuration entry state: connected, no
	// configuration traffic exchanged yet.
	StateWaitConfig
	// StateWaitSendConfig means the remote's Configuration Request has
	// been answered but the local request is still unsent.
	StateWaitSendConfig
	// StateWaitConfigReqRsp means the local request is outstanding and the
	// remote's request has not arrived yet.
	StateWaitConfigReqRsp
	// StateWaitConfigRsp means only the response to the local request is
	// outstanding.
	StateWaitConfigRsp
	// StateWaitConfigReq means only the remote's request is outstanding.
	StateWaitConfigReq
	// StateWaitIndFinalRsp is the lockstep-configuration state entered
	// after answering a request with "pending": the final response is
	// awaited by the peer while this side completes its decision.
	StateWaitIndFinalRsp
	// StateWaitFinalRsp is the initiator-side lockstep state awaiting the
	// final configuration response.
	StateWaitFinalRsp
	// StateWaitControlInd is the lockstep state awaiting a controller
	// indication.
	StateWaitControlInd
	// StateOpen is the data-transfer state.
	StateOpen
	// StateWaitDisconnect is occupied while a disconnection is being
	// processed.
	StateWaitDisconnect
	// StateWaitMove is occupied by an acceptor processing a Move Channel
	// Request.
	StateWaitMove
	// StateWaitMoveRsp is occupied by an initiator awaiting the Move
	// Channel Response.
	StateWaitMoveRsp
	// StateWaitMoveConfirm is occupied awaiting the Move Channel
	// Confirmation Request after a successful move response.
	StateWaitMoveConfirm
	// StateWaitConfirmRsp is occupied by a move initiator awaiting the
	// confirmation acknowledgement.
	StateWaitConfirmRsp
)

// NumStates is the number of L2CAP states in Bluetooth 5.2.
const NumStates = 19

// AllStates returns the 19 states in declaration order. The slice is
// freshly allocated.
func AllStates() []State {
	states := make([]State, 0, NumStates)
	for s := StateClosed; s <= StateWaitConfirmRsp; s++ {
		states = append(states, s)
	}
	return states
}

func (s State) String() string {
	switch s {
	case StateClosed:
		return "CLOSED"
	case StateWaitConnect:
		return "WAIT_CONNECT"
	case StateWaitConnectRsp:
		return "WAIT_CONNECT_RSP"
	case StateWaitCreate:
		return "WAIT_CREATE"
	case StateWaitCreateRsp:
		return "WAIT_CREATE_RSP"
	case StateWaitConfig:
		return "WAIT_CONFIG"
	case StateWaitSendConfig:
		return "WAIT_SEND_CONFIG"
	case StateWaitConfigReqRsp:
		return "WAIT_CONFIG_REQ_RSP"
	case StateWaitConfigRsp:
		return "WAIT_CONFIG_RSP"
	case StateWaitConfigReq:
		return "WAIT_CONFIG_REQ"
	case StateWaitIndFinalRsp:
		return "WAIT_IND_FINAL_RSP"
	case StateWaitFinalRsp:
		return "WAIT_FINAL_RSP"
	case StateWaitControlInd:
		return "WAIT_CONTROL_IND"
	case StateOpen:
		return "OPEN"
	case StateWaitDisconnect:
		return "WAIT_DISCONNECT"
	case StateWaitMove:
		return "WAIT_MOVE"
	case StateWaitMoveRsp:
		return "WAIT_MOVE_RSP"
	case StateWaitMoveConfirm:
		return "WAIT_MOVE_CONFIRM"
	case StateWaitConfirmRsp:
		return "WAIT_CONFIRM_RSP"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// StateSet is a set of states, one bit per state: it folds the visits of
// any number of machines into coverage without allocating.
type StateSet uint32

// Add puts s in the set.
func (set *StateSet) Add(s State) { *set |= 1 << s }

// AddVisited puts every state m has occupied in the set.
func (set *StateSet) AddVisited(m *Machine) {
	for _, s := range m.visited[:m.n] {
		set.Add(s)
	}
}

// AppendStates appends the set's states to dst in declaration order and
// returns the extended slice.
func (set StateSet) AppendStates(dst []State) []State {
	for s := StateClosed; s <= StateWaitConfirmRsp; s++ {
		if set&(1<<s) != 0 {
			dst = append(dst, s)
		}
	}
	return dst
}
