package metrics

import (
	"testing"

	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/sm"
)

// visitedSet drives no traffic: it renders the inferencer's visited
// states as a lookup set.
func visitedSet(si *StateInferencer) map[sm.State]bool {
	out := make(map[sm.State]bool)
	for _, st := range si.Visited() {
		out[st] = true
	}
	return out
}

// TestInferencerKeepsShadowThroughPendingConnect is the regression test
// for the pending-connect coverage loss: a connection response carrying
// ConnResultPending must not consume the pending shadow, so the later
// final success response still matches it and the channel's post-connect
// states (WAIT_CONFIG through OPEN) stay in the coverage count.
func TestInferencerKeepsShadowThroughPendingConnect(t *testing.T) {
	si := NewStateInferencer()
	const (
		testerCID l2cap.CID = 0x0040
		deviceCID l2cap.CID = 0x0041
	)
	si.ObserveTx(&l2cap.ConnectionReq{PSM: l2cap.PSMAVDTP, SCID: testerCID})
	// Authorization pending: the target is still deciding.
	si.ObserveRx(&l2cap.ConnectionRsp{SCID: testerCID, DCID: 0, Result: l2cap.ConnResultPending})
	// The final decision arrives for the same SCID.
	si.ObserveRx(&l2cap.ConnectionRsp{SCID: testerCID, DCID: deviceCID, Result: l2cap.ConnResultSuccess})

	visited := visitedSet(si)
	if !visited[sm.StateWaitConnect] || !visited[sm.StateWaitConfig] {
		t.Fatalf("pending-then-success connect lost states: got %v, want WAIT_CONNECT and WAIT_CONFIG", si.Visited())
	}

	// The channel must stay tracked: drive the configuration exchange to
	// OPEN through the same shadow.
	si.ObserveTx(&l2cap.ConfigurationReq{DCID: deviceCID}) // → WAIT_SEND_CONFIG
	si.ObserveRx(&l2cap.ConfigurationReq{DCID: testerCID}) // device proposes → WAIT_CONFIG_RSP
	si.ObserveTx(&l2cap.ConfigurationRsp{SCID: deviceCID}) // → OPEN

	visited = visitedSet(si)
	for _, want := range []sm.State{sm.StateWaitSendConfig, sm.StateWaitConfigRsp, sm.StateOpen} {
		if !visited[want] {
			t.Errorf("post-connect state %v not counted after a pending connect; got %v", want, si.Visited())
		}
	}
}

// TestInferencerKeepsShadowThroughPendingCreate covers the Create
// Channel flavour of the same handshake.
func TestInferencerKeepsShadowThroughPendingCreate(t *testing.T) {
	si := NewStateInferencer()
	const (
		testerCID l2cap.CID = 0x0044
		deviceCID l2cap.CID = 0x0045
	)
	si.ObserveTx(&l2cap.CreateChannelReq{PSM: l2cap.PSMAVDTP, SCID: testerCID})
	si.ObserveRx(&l2cap.CreateChannelRsp{SCID: testerCID, DCID: 0, Result: l2cap.ConnResultPending})
	si.ObserveRx(&l2cap.CreateChannelRsp{SCID: testerCID, DCID: deviceCID, Result: l2cap.ConnResultSuccess})

	visited := visitedSet(si)
	if !visited[sm.StateWaitCreate] || !visited[sm.StateWaitConfig] {
		t.Errorf("pending-then-success create lost states: got %v, want WAIT_CREATE and WAIT_CONFIG", si.Visited())
	}
}

// TestInferencerDropsShadowOnFinalRefusal pins the other half of the
// contract: a final negative result still retires the shadow, so a
// stray success response for the same SCID later matches nothing.
func TestInferencerDropsShadowOnFinalRefusal(t *testing.T) {
	si := NewStateInferencer()
	const testerCID l2cap.CID = 0x0048
	si.ObserveTx(&l2cap.ConnectionReq{PSM: l2cap.PSMAVDTP, SCID: testerCID})
	si.ObserveRx(&l2cap.ConnectionRsp{SCID: testerCID, DCID: 0, Result: l2cap.ConnResultPending})
	si.ObserveRx(&l2cap.ConnectionRsp{SCID: testerCID, DCID: 0, Result: l2cap.ConnResultSecurityBlock})
	// A bogus success after the final refusal must not resurrect it.
	si.ObserveRx(&l2cap.ConnectionRsp{SCID: testerCID, DCID: 0x0049, Result: l2cap.ConnResultSuccess})

	visited := visitedSet(si)
	if !visited[sm.StateWaitConnect] {
		t.Errorf("refused connect lost its WAIT_CONNECT visit: %v", si.Visited())
	}
	if visited[sm.StateWaitConfig] {
		t.Errorf("refused connect credited WAIT_CONFIG: %v", si.Visited())
	}
}

// TestInferencerConfigExchangeDoesNotAllocate pins the coverage fold:
// once a channel is tracked, observing its configuration exchange —
// every command of which folds the shadow's visit list into the
// coverage set — allocates nothing.
func TestInferencerConfigExchangeDoesNotAllocate(t *testing.T) {
	si := NewStateInferencer()
	const (
		testerCID l2cap.CID = 0x0040
		deviceCID l2cap.CID = 0x0041
	)
	si.ObserveTx(&l2cap.ConnectionReq{PSM: l2cap.PSMAVDTP, SCID: testerCID})
	si.ObserveRx(&l2cap.ConnectionRsp{SCID: testerCID, DCID: deviceCID, Result: l2cap.ConnResultSuccess})
	var (
		txReq l2cap.Command = &l2cap.ConfigurationReq{DCID: deviceCID}
		rxReq l2cap.Command = &l2cap.ConfigurationReq{DCID: testerCID}
		txRsp l2cap.Command = &l2cap.ConfigurationRsp{SCID: deviceCID}
		rxRsp l2cap.Command = &l2cap.ConfigurationRsp{SCID: testerCID}
	)
	exchange := func() {
		si.ObserveTx(txReq) // → WAIT_SEND_CONFIG (OPEN re-enters it)
		si.ObserveRx(rxReq) // → WAIT_CONFIG_RSP
		si.ObserveTx(txRsp) // → OPEN
		si.ObserveRx(rxRsp)
	}
	exchange()
	if !visitedSet(si)[sm.StateOpen] {
		t.Fatalf("exchange did not reach OPEN: %v", si.Visited())
	}
	if n := testing.AllocsPerRun(100, exchange); n != 0 {
		t.Fatalf("configuration exchange allocates %.1f times per round", n)
	}
}
