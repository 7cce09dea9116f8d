package core

import (
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/sm"
)

// stateVisit is one stop in the state-guiding schedule: a target state,
// whose job's valid commands are fuzzed there (Table III), and the
// transition recipe that steers the device into the state using normal
// packets.
type stateVisit struct {
	state sm.State
	setup recipe
}

// A recipe drives the target into a state. It reports whether the state
// was reached and the channel, if any, the visit closes after fuzzing.
type recipe func(f *Fuzzer, psm l2cap.PSM) (channel, bool)

// channel is the CID pair a recipe opened; the zero channel closes
// nothing.
type channel struct{ local, remote l2cap.CID }

// A step is the valid command a recipe sends on the channel it opened,
// moving the acceptor (remote CID) one transition further.
type step func(remote l2cap.CID) l2cap.Command

// schedule is the state-guiding itinerary: every master-reachable state
// in state-machine depth order (connection → configuration → open →
// move → disconnection), with the AMP creation job last.
var schedule = []stateVisit{
	{sm.StateClosed, cold},
	{sm.StateWaitConnect, cold},
	{sm.StateWaitConfig, configuring(nil)},
	// Eager stacks sit here right after accepting: they have already
	// sent their own Configuration Request.
	{sm.StateWaitConfigReqRsp, configuring(nil)},
	{sm.StateWaitSendConfig, configuring(configureMTU)},
	// The same request leaves eager stacks in WAIT_CONFIG_RSP.
	{sm.StateWaitConfigRsp, configuring(configureMTU)},
	{sm.StateWaitConfigReq, configuring(acceptConfig)},
	{sm.StateWaitIndFinalRsp, configuring(configureEFS)},
	{sm.StateOpen, opened(nil)},
	{sm.StateWaitMove, opened(nil)},
	{sm.StateWaitMoveConfirm, opened(requestMove)},
	{sm.StateWaitDisconnect, opened(nil)},
	{sm.StateWaitCreate, createChannel},
}

// stateless is the schedule with state guiding ablated: a stateless
// fuzzer never steers the target — it fuzzes every command from a cold
// link, like the dumb mutation strategies the paper compares against.
var stateless = []stateVisit{{sm.StateClosed, cold}}

// cold is the recipe for states testable from a cold link.
func cold(*Fuzzer, l2cap.PSM) (channel, bool) { return channel{}, true }

// configuring opens a channel and leaves it mid-configuration, then
// sends s on it unless s is nil.
func configuring(s step) recipe {
	return func(f *Fuzzer, psm l2cap.PSM) (channel, bool) {
		res, err := f.cl.TryOpenChannel(f.target, psm)
		if err != nil || res.Result != l2cap.ConnResultSuccess {
			return channel{}, false
		}
		f.countSetupPackets(1)
		ch := channel{res.LocalCID, res.RemoteCID}
		f.sendStep(s, ch)
		return ch, true
	}
}

// opened opens and configures a channel, then sends s on it unless s
// is nil.
func opened(s step) recipe {
	return func(f *Fuzzer, psm l2cap.PSM) (channel, bool) {
		local, remote, err := f.cl.OpenChannel(f.target, psm)
		if err != nil {
			return channel{}, false
		}
		f.countSetupPackets(3)
		ch := channel{local, remote}
		f.sendStep(s, ch)
		return ch, true
	}
}

// sendStep sends a recipe's step command on ch and drains the answers.
func (f *Fuzzer) sendStep(s step, ch channel) {
	if s == nil {
		return
	}
	_, _ = f.cl.SendCommand(f.target, s(ch.remote), nil)
	f.countSetupPackets(1)
	f.cl.Drain()
}

// closeChannel is every visit's teardown: it disconnects the channel
// the visit's recipe opened, if any.
func (f *Fuzzer) closeChannel(ch channel) {
	if ch == (channel{}) {
		return
	}
	_ = f.cl.CloseChannel(f.target, ch.local, ch.remote)
	f.countSetupPackets(1)
}

// configureMTU is a valid Configuration Request: it moves the acceptor
// toward WAIT_SEND_CONFIG (or WAIT_CONFIG_RSP on eager stacks).
func configureMTU(remote l2cap.CID) l2cap.Command {
	return &l2cap.ConfigurationReq{
		DCID:    remote,
		Options: []l2cap.ConfigOption{l2cap.MTUOption(l2cap.DefaultSignalingMTU)},
	}
}

// acceptConfig answers the eager stack's own Configuration Request, so
// only ours is outstanding.
func acceptConfig(remote l2cap.CID) l2cap.Command {
	return &l2cap.ConfigurationRsp{SCID: remote, Result: l2cap.ConfigSuccess}
}

// configureEFS requests an extended flow spec, which forces lockstep
// configuration: the acceptor answers "pending" and waits in
// WAIT_IND_FINAL_RSP.
func configureEFS(remote l2cap.CID) l2cap.Command {
	return &l2cap.ConfigurationReq{
		DCID: remote,
		Options: []l2cap.ConfigOption{
			{Type: l2cap.OptionExtendedFlowSpec, Value: make([]byte, 16)},
		},
	}
}

// requestMove is a valid Move Channel Request: it parks the acceptor in
// WAIT_MOVE_CONFIRM awaiting our confirmation.
func requestMove(remote l2cap.CID) l2cap.Command {
	return &l2cap.MoveChannelReq{ICID: remote}
}

// createChannel sends one valid Create Channel Request, which genuinely
// puts the acceptor into WAIT_CREATE — a state only L2Fuzz covers,
// where the paper's D3 zero-day lives.
func createChannel(f *Fuzzer, psm l2cap.PSM) (channel, bool) {
	scid := f.cl.NextSourceCID()
	f.cl.Drain()
	if _, err := f.cl.SendCommand(f.target, &l2cap.CreateChannelReq{
		PSM: psm, SCID: scid,
	}, nil); err != nil {
		return channel{}, false
	}
	f.countSetupPackets(1)
	var remote l2cap.CID
	for _, cmd := range f.cl.DrainCommands() {
		if rsp, ok := cmd.(*l2cap.CreateChannelRsp); ok &&
			rsp.SCID == scid && rsp.Result == l2cap.ConnResultSuccess {
			remote = rsp.DCID
		}
	}
	if remote == 0 {
		// Refused (cap or pairing): the state was still occupied while
		// deciding; fuzz from a cold link.
		return channel{}, true
	}
	return channel{scid, remote}, true
}

// commandsFor returns the commands to fuzz in a state: the job's valid
// commands (Table III), or every command when state guiding is ablated.
func (f *Fuzzer) commandsFor(state sm.State) []l2cap.CommandCode {
	if f.cfg.NoStateGuiding {
		return l2cap.AllCommandCodes()
	}
	return sm.ValidCommands(sm.JobOf(state))
}
