package testbed

import (
	"math/rand"
	"testing"

	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/core"
)

// TestWarmMutatedPacketDoesNotAllocate pins the L2Fuzz packet path at
// steady state: on a measurement-grade catalog target, with the rig's
// sniffer tapping the medium, mutating a packet, sending it and draining
// the device's answer allocates nothing. The commands cover the device's
// invalid-CID reject together with the sniffer's malformed verdict
// (configuration, disconnection and move requests naming CIDs nothing
// allocated), the reject of a stray response, and an information answer.
// D4 looks channels up strictly, D8 leniently; both reject stray
// responses.
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
					if got := rig.Sniffer.Summary().Malformed - before; tc.malformed && got != 1 {
						t.Fatalf("%v: sniffer counted %d malformed packets, want 1", tc.code, got)
					}
				}
				if n := testing.AllocsPerRun(100, round); n != 0 {
					t.Errorf("%v: warm Mutate→Send→Drain round allocates %.1f times", tc.code, n)
				}
			}
		})
	}
}
