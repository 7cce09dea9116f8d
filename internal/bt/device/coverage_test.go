package device

import (
	"maps"
	"testing"

	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/rfcomm"
)

// coverageScript drives one robust device through every signaling
// command, an SDP transaction, RFCOMM traffic and undecodable frames,
// and returns its handler coverage.
func coverageScript(t *testing.T) map[string]int {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	cfg := basicConfig(BlueZProfile("5.0", "fp"))
	cfg.Ports = []ServicePort{{PSM: l2cap.PSMAVDTP, Name: "AVDTP"}, {PSM: l2cap.PSMRFCOMM, Name: "RFCOMM"}}
	cfg.RFCOMMServices = []rfcomm.Service{{Channel: 1, Name: "SPP"}}
	cfg.DisableVulns = true
	d, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:01"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	peer := d.Address()
	if err := cl.Connect(peer); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cl.Ping(peer); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.QuerySDP(peer); err != nil {
		t.Fatal(err)
	}
	local, remote, err := cl.OpenChannel(peer, l2cap.PSMRFCOMM)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []rfcomm.Frame{
		{DLCI: 0, CommandResponse: true, Type: rfcomm.FrameSABM, PollFinal: true},
		{DLCI: 2, CommandResponse: true, Type: rfcomm.FrameSABM, PollFinal: true},
	} {
		if err := cl.Send(peer, l2cap.NewPacket(remote, f.Marshal())); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.CloseChannel(peer, local, remote); err != nil {
		t.Fatal(err)
	}
	for _, code := range l2cap.AllCommandCodes() {
		cmd, err := l2cap.DefaultCommand(code)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.SendCommand(peer, cmd, nil); err != nil {
			t.Fatal(err)
		}
		cl.Drain()
	}
	// Undecodable: a Connection Request one byte long, and a code no
	// command has.
	for _, payload := range [][]byte{{0x02, 0x77, 0x01, 0x00, 0xAA}, {0x7F, 0x78, 0x00, 0x00}} {
		if err := cl.Send(peer, l2cap.NewPacket(l2cap.CIDSignaling, payload)); err != nil {
			t.Fatal(err)
		}
	}
	return d.HandlerCoverage()
}

// TestHandlerCoverageKeysAndCounts pins HandlerCoverage's keys and
// counts for a fixed script. The device tallies handlers in an array
// indexed by command code; the map it returns must name them exactly as
// the map keyed by command name did, with the data-plane and
// undecodable handlers alongside and no key for a handler never run.
func TestHandlerCoverageKeysAndCounts(t *testing.T) {
	want := map[string]int{
		"CommandReject": 1, "ConfigurationReq": 3, "ConfigurationRsp": 3,
		"ConnParamUpdateReq": 1, "ConnParamUpdateRsp": 1, "ConnectionReq": 3,
		"ConnectionRsp": 1, "CreateChannelReq": 1, "CreateChannelRsp": 1,
		"CreditBasedConnReq": 1, "CreditBasedConnRsp": 1, "CreditBasedReconfReq": 1,
		"CreditBasedReconfRsp": 1, "DisconnectionReq": 3, "DisconnectionRsp": 1,
		"EchoReq": 4, "EchoRsp": 1, "FlowControlCredit": 1,
		"InformationReq": 1, "InformationRsp": 1, "LECreditConnReq": 1,
		"LECreditConnRsp": 1, "MoveChannelConfirmReq": 1, "MoveChannelConfirmRsp": 1,
		"MoveChannelReq": 1, "MoveChannelRsp": 1,
		"RFCOMM": 2, "SDP": 1, "undecodable": 2,
	}
	if got := coverageScript(t); !maps.Equal(got, want) {
		t.Fatalf("HandlerCoverage() =\n%v\nwant\n%v", got, want)
	}
}
