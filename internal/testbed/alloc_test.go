package testbed

import (
	"math/rand"
	"slices"
	"testing"

	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/sm"
	"l2fuzz/internal/core"
)

// TestWarmMutatedPacketDoesNotAllocate pins the L2Fuzz packet path at
// steady state: on a measurement-grade catalog target, with the rig's
// sniffer tapping the medium, mutating a packet, sending it and draining
// the device's answer allocates nothing. The commands cover the device's
// invalid-CID reject together with the sniffer's malformed verdict
// (configuration, disconnection and move requests naming CIDs nothing
// allocated), the reject of a stray response, an information answer,
// and refused connect and create requests, which the sniffer's state
// inferencer tracks until their answer. D4 looks channels up strictly,
// D8 leniently; both reject stray responses and both answer enhanced
// credit-based requests.
//
// Two more rounds send commands the test owns: an enhanced credit-based
// request naming three channels, whose CID list the device and the
// sniffer decode in place (no allocation), and a channel opened,
// configured and disconnected, which allocates the device's channel and
// the sniffer's shadow of it and nothing else.
func TestWarmMutatedPacketDoesNotAllocate(t *testing.T) {
	cases := []struct {
		code      l2cap.CommandCode
		answer    l2cap.CommandCode
		reason    l2cap.RejectReason // checked when answer is a reject
		malformed bool               // the sniffer must call every packet malformed
	}{
		{l2cap.CodeConfigurationReq, l2cap.CodeCommandReject, l2cap.RejectInvalidCID, true},
		{l2cap.CodeDisconnectionReq, l2cap.CodeCommandReject, l2cap.RejectInvalidCID, true},
		{l2cap.CodeMoveChannelReq, l2cap.CodeCommandReject, l2cap.RejectInvalidCID, true},
		{l2cap.CodeConnectionRsp, l2cap.CodeCommandReject, l2cap.RejectNotUnderstood, true},
		{l2cap.CodeInformationReq, l2cap.CodeInformationRsp, 0, false},
		// A mutated PSM is always abnormal, so the device refuses.
		{l2cap.CodeConnectionReq, l2cap.CodeConnectionRsp, 0, true},
		{l2cap.CodeCreateChannelReq, l2cap.CodeCreateChannelRsp, 0, true},
	}
	for _, id := range []string{"D4", "D8"} {
		t.Run(id, func(t *testing.T) {
			rig, err := New(catalogSpec(t, id), Options{DisableVulns: true})
			if err != nil {
				t.Fatal(err)
			}
			target := rig.Device.Address()
			if err := rig.Client.Connect(target); err != nil {
				t.Fatal(err)
			}
			mu := core.NewMutator(rand.New(rand.NewSource(1)), core.DefaultMaxGarbage)
			for _, tc := range cases {
				var answers []l2cap.Command
				round := func() {
					pkt, _, err := mu.Mutate(rig.Client.NextID(), tc.code)
					if err != nil {
						t.Fatal(err)
					}
					if err := rig.Client.Send(target, pkt); err != nil {
						t.Fatal(err)
					}
					answers = rig.Client.DrainCommands()
				}
				for i := 0; i < 8; i++ {
					before := rig.Sniffer.Summary().Malformed
					round()
					if len(answers) != 1 || answers[0].Code() != tc.answer {
						t.Fatalf("%v: device answered %v, want one %v", tc.code, answers, tc.answer)
					}
					if rej, ok := answers[0].(*l2cap.CommandReject); ok && rej.Reason != tc.reason {
						t.Fatalf("%v: reject reason %v, want %v", tc.code, rej.Reason, tc.reason)
					}
					if opened(answers[0]) {
						t.Fatalf("%v: device opened a channel, want a refusal", tc.code)
					}
					if got := rig.Sniffer.Summary().Malformed - before; tc.malformed && got != 1 {
						t.Fatalf("%v: sniffer counted %d malformed packets, want 1", tc.code, got)
					}
				}
				if n := testing.AllocsPerRun(100, round); n != 0 {
					t.Errorf("%v: warm Mutate→Send→Drain round allocates %.1f times", tc.code, n)
				}
			}

			exchange := func(cmd l2cap.Command) []l2cap.Command {
				if _, err := rig.Client.SendCommand(target, cmd, nil); err != nil {
					t.Fatal(err)
				}
				return rig.Client.DrainCommands()
			}

			ecred := &l2cap.CreditBasedConnReq{SPSM: 0x0080, MTU: 64, MPS: 64, InitialCredits: 1,
				SCIDs: []l2cap.CID{0x0040, 0x0041, 0x0042}}
			var ecredAnswers []l2cap.Command
			ecredRound := func() { ecredAnswers = exchange(ecred) }
			for i := 0; i < 8; i++ {
				ecredRound()
				if len(ecredAnswers) != 1 || ecredAnswers[0].Code() != l2cap.CodeCreditBasedConnRsp {
					t.Fatalf("3-SCID credit-based request: device answered %v, want one refusal", ecredAnswers)
				}
			}
			if n := testing.AllocsPerRun(100, ecredRound); n != 0 {
				t.Errorf("warm 3-SCID credit-based request round allocates %.1f times", n)
			}

			var (
				connReq = &l2cap.ConnectionReq{PSM: l2cap.PSMSDP, SCID: l2cap.CIDDynamicFirst}
				confReq = &l2cap.ConfigurationReq{}
				confRsp = &l2cap.ConfigurationRsp{Result: l2cap.ConfigSuccess}
				discReq = &l2cap.DisconnectionReq{SCID: l2cap.CIDDynamicFirst}
				dcid    l2cap.CID
				closed  bool
			)
			lifecycle := func() {
				dcid = 0
				for _, a := range exchange(connReq) {
					if rsp, ok := a.(*l2cap.ConnectionRsp); ok && rsp.Result == l2cap.ConnResultSuccess {
						dcid = rsp.DCID
					}
				}
				confReq.DCID = dcid
				exchange(confReq)
				confRsp.SCID = dcid // answers the device's own configuration request
				exchange(confRsp)
				discReq.DCID = dcid
				answers := exchange(discReq)
				closed = len(answers) == 1 && answers[0].Code() == l2cap.CodeDisconnectionRsp
			}
			for i := 0; i < 8; i++ {
				lifecycle()
				if dcid == 0 || !closed {
					t.Fatalf("open→configure→disconnect round %d: channel %v, closed %v", i, dcid, closed)
				}
			}
			for _, want := range []sm.State{sm.StateOpen, sm.StateWaitDisconnect} {
				if !slices.Contains(rig.Device.StatesVisited(), want) || !slices.Contains(rig.Sniffer.StatesVisited(), want) {
					t.Fatalf("lifecycle did not pass through %v: device %v, sniffer %v",
						want, rig.Device.StatesVisited(), rig.Sniffer.StatesVisited())
				}
			}
			if n := testing.AllocsPerRun(100, lifecycle); n > 2 {
				t.Errorf("warm open→configure→disconnect round allocates %.1f times, want at most 2 (the device's channel and the sniffer's shadow)", n)
			}
		})
	}
}

// opened reports whether cmd is a connect or create response that opens
// a channel.
func opened(cmd l2cap.Command) bool {
	switch rsp := cmd.(type) {
	case *l2cap.ConnectionRsp:
		return rsp.Result == l2cap.ConnResultSuccess
	case *l2cap.CreateChannelRsp:
		return rsp.Result == l2cap.ConnResultSuccess
	}
	return false
}
