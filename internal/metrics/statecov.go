package metrics

import (
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/sm"
)

// VisitedState is one state the target was inferred to have visited.
type VisitedState = sm.State

// shadowChan is one open channel: the shadow machine plus both endpoint
// names (the device-side CID from the response, the tester-side CID from
// the request).
type shadowChan struct {
	m         sm.Machine
	deviceCID l2cap.CID
	testerCID l2cap.CID
}

// StateInferencer replays shadow channel state machines over an observed
// command trace to estimate which L2CAP states the target occupied: the
// trace-analysis role PRETT plays in the paper's state-coverage
// measurement.
//
// The inference is conservative where it can be — commands are matched to
// channels by both endpoint CIDs — and optimistic only where the paper's
// methodology is too (a connect or create request is credited with the
// corresponding wait state even if the target refuses, because the target
// had to occupy it to decide).
type StateInferencer struct {
	// byDevice indexes shadows by the device-side CID.
	byDevice map[l2cap.CID]*shadowChan
	// byTester indexes shadows by the tester-side CID.
	byTester map[l2cap.CID]*shadowChan
	// pendingConn maps a tester SCID awaiting a connect or create
	// response to the request's event. Most requests are refused, so a
	// shadow is built only when the response opens the channel.
	pendingConn map[l2cap.CID]sm.Event
	// visited accumulates states across all shadows, including closed
	// channels and refused requests.
	visited sm.StateSet
}

// NewStateInferencer returns an empty inferencer.
func NewStateInferencer() *StateInferencer {
	return &StateInferencer{
		byDevice:    make(map[l2cap.CID]*shadowChan),
		byTester:    make(map[l2cap.CID]*shadowChan),
		pendingConn: make(map[l2cap.CID]sm.Event),
	}
}

// drop removes a shadow from the indexes, absorbing its visit history.
func (si *StateInferencer) drop(sc *shadowChan) {
	si.visited.AddVisited(&sc.m)
	delete(si.byDevice, sc.deviceCID)
	delete(si.byTester, sc.testerCID)
}

// ObserveTx consumes one tester-to-target command.
func (si *StateInferencer) ObserveTx(cmd l2cap.Command) {
	switch c := cmd.(type) {
	case *l2cap.ConnectionReq:
		// The target enters WAIT_CONNECT while deciding.
		si.request(c.SCID, sm.EvRecvConnectReq)
	case *l2cap.CreateChannelReq:
		si.request(c.SCID, sm.EvRecvCreateReq)
	case *l2cap.ConfigurationReq:
		if sc := si.byDevice[c.DCID]; sc != nil {
			ev := sm.EvRecvConfigReq
			if hasEFS(c.Options) {
				ev = sm.EvRecvConfigReqEFS
			}
			sc.m.Apply(ev)
			si.visited.AddVisited(&sc.m)
		}
	case *l2cap.ConfigurationRsp:
		// In a tester-sent response the SCID names the device-side
		// endpoint.
		if sc := si.byDevice[c.SCID]; sc != nil {
			sc.m.Apply(sm.EvRecvConfigRsp)
			si.visited.AddVisited(&sc.m)
		}
	case *l2cap.DisconnectionReq:
		if sc := si.byDevice[c.DCID]; sc != nil {
			if _, ok := sc.m.Apply(sm.EvRecvDisconnectReq); ok {
				// OPEN channels pass through WAIT_DISCONNECT.
				sc.m.Apply(sm.EvLocalAccept)
			}
			si.drop(sc)
		}
	case *l2cap.MoveChannelReq:
		if sc := si.byDevice[c.ICID]; sc != nil {
			sc.m.Apply(sm.EvRecvMoveReq)
			si.visited.AddVisited(&sc.m)
		}
	case *l2cap.MoveChannelConfirmReq:
		if sc := si.byDevice[c.ICID]; sc != nil {
			sc.m.Apply(sm.EvRecvMoveConfirmReq)
			si.visited.AddVisited(&sc.m)
		}
	default:
	}
}

// ObserveRx consumes one target-to-tester command.
func (si *StateInferencer) ObserveRx(cmd l2cap.Command) {
	switch c := cmd.(type) {
	case *l2cap.ConnectionRsp:
		si.completeConnect(c.SCID, c.DCID, c.Result)
	case *l2cap.CreateChannelRsp:
		si.completeConnect(c.SCID, c.DCID, c.Result)
	case *l2cap.ConfigurationReq:
		// The device proposing its own configuration: the request's DCID
		// names the tester-side endpoint.
		if sc := si.byTester[c.DCID]; sc != nil {
			sc.m.Apply(sm.EvLocalSendConfigReq)
			si.visited.AddVisited(&sc.m)
		}
	case *l2cap.ConfigurationRsp:
		// The SCID in a device-sent response names the tester-side
		// endpoint. A final (non-pending) response completes lockstep
		// configuration when the shadow is parked in WAIT_IND_FINAL_RSP.
		if sc := si.byTester[c.SCID]; sc != nil {
			if c.Result != l2cap.ConfigPending && sc.m.State() == sm.StateWaitIndFinalRsp {
				sc.m.Apply(sm.EvLocalFinalRsp)
			}
			si.visited.AddVisited(&sc.m)
		}
	case *l2cap.MoveChannelRsp:
		if c.Result == l2cap.MoveResultSuccess {
			if sc := si.byDevice[c.ICID]; sc != nil && sc.m.State() == sm.StateWaitMove {
				sc.m.Apply(sm.EvLocalAccept)
				si.visited.AddVisited(&sc.m)
			}
		}
	default:
	}
}

// request records a connect or create request from the tester: the
// target occupies CLOSED and then the request's wait state to decide,
// whatever it answers.
func (si *StateInferencer) request(scid l2cap.CID, ev sm.Event) {
	t, _ := sm.Lookup(sm.StateClosed, ev)
	si.visited.Add(sm.StateClosed)
	si.visited.Add(t.Next)
	si.pendingConn[scid] = ev
}

// completeConnect resolves a pending connect/create against its response.
func (si *StateInferencer) completeConnect(scid, dcid l2cap.CID, result l2cap.ConnResult) {
	ev, ok := si.pendingConn[scid]
	if !ok {
		return
	}
	if result == l2cap.ConnResultPending {
		// The target is still deciding (authorization pending): the
		// channel stays in WAIT_CONNECT/WAIT_CREATE and the final
		// response is yet to come. Keep the request pending so that final
		// response still matches — dropping it here would orphan every
		// post-connect state on the channel.
		return
	}
	delete(si.pendingConn, scid)
	if result != l2cap.ConnResultSuccess {
		return
	}
	// A reused device CID means the old channel is gone (link loss the
	// trace did not witness); retire the stale shadow first.
	if old := si.byDevice[dcid]; old != nil {
		si.drop(old)
	}
	if old := si.byTester[scid]; old != nil {
		si.drop(old)
	}
	sc := &shadowChan{deviceCID: dcid, testerCID: scid}
	sc.m.Reset()
	sc.m.Apply(ev)               // → WAIT_CONNECT / WAIT_CREATE
	sc.m.Apply(sm.EvLocalAccept) // → WAIT_CONFIG
	si.byDevice[dcid] = sc
	si.byTester[scid] = sc
	si.visited.AddVisited(&sc.m)
}

// Visited returns the inferred visited states in declaration order.
func (si *StateInferencer) Visited() []VisitedState { return si.visited.AppendStates(nil) }

func hasEFS(opts []l2cap.ConfigOption) bool {
	for _, o := range opts {
		if o.Type == l2cap.OptionExtendedFlowSpec {
			return true
		}
	}
	return false
}
