package metrics

import (
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sm"
)

// snifferRig builds a medium with one lenient device, one tester and a
// sniffer.
func snifferRig(t *testing.T) (*host.Client, *device.Device, *Sniffer) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	d, err := device.New(m, device.Config{
		Addr:         radio.MustBDAddr("F8:8F:CA:00:00:02"),
		Name:         "target",
		Profile:      device.BlueDroidProfile("5.0", "fp"),
		Ports:        []device.ServicePort{{PSM: l2cap.PSMAVDTP, Name: "AVDTP"}},
		DisableVulns: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tester := radio.MustBDAddr("00:1B:DC:00:00:01")
	cl, err := host.NewClient(m, tester, "tester")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSniffer(m, tester)
	if err := cl.Connect(d.Address()); err != nil {
		t.Fatal(err)
	}
	return cl, d, s
}

func TestSnifferCountsNormalTraffic(t *testing.T) {
	cl, d, s := snifferRig(t)
	if err := cl.Ping(d.Address()); err != nil {
		t.Fatal(err)
	}
	sum := s.Summary()
	if sum.Transmitted != 1 || sum.Received != 1 {
		t.Fatalf("tx/rx = %d/%d, want 1/1", sum.Transmitted, sum.Received)
	}
	if sum.Malformed != 0 || sum.Rejections != 0 {
		t.Fatalf("normal echo counted as malformed/rejected: %+v", sum)
	}
}

func TestSnifferClassifiesGarbageTailAsMalformed(t *testing.T) {
	cl, d, s := snifferRig(t)
	if _, err := cl.SendCommand(d.Address(), &l2cap.EchoReq{}, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if sum := s.Summary(); sum.Malformed != 1 {
		t.Fatalf("Malformed = %d, want 1 (garbage tail)", sum.Malformed)
	}
}

func TestSnifferClassifiesAbnormalPSMAsMalformed(t *testing.T) {
	cl, d, s := snifferRig(t)
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConnectionReq{PSM: 0x0101, SCID: 0x0040}, nil); err != nil {
		t.Fatal(err)
	}
	if sum := s.Summary(); sum.Malformed != 1 {
		t.Fatalf("Malformed = %d, want 1 (abnormal PSM)", sum.Malformed)
	}
}

func TestSnifferClassifiesUnknownCIDAsMalformed(t *testing.T) {
	cl, d, s := snifferRig(t)
	// A config request for a CID the trace never saw allocated.
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConfigurationReq{DCID: 0x5555}, nil); err != nil {
		t.Fatal(err)
	}
	if sum := s.Summary(); sum.Malformed != 1 {
		t.Fatalf("Malformed = %d, want 1 (unallocated CID)", sum.Malformed)
	}
}

func TestSnifferAllocatedCIDNotMalformed(t *testing.T) {
	cl, d, s := snifferRig(t)
	res, err := cl.TryOpenChannel(d.Address(), l2cap.PSMAVDTP)
	if err != nil || res.Result != l2cap.ConnResultSuccess {
		t.Fatalf("open: %+v %v", res, err)
	}
	before := s.Summary().Malformed
	// Config for the genuinely allocated DCID, no tail: normal.
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConfigurationReq{DCID: res.RemoteCID}, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Summary().Malformed; got != before {
		t.Fatalf("valid config counted malformed (%d → %d)", before, got)
	}
}

func TestSnifferInvalidNotMalformed(t *testing.T) {
	cl, d, s := snifferRig(t)
	// A raw signaling payload whose declared data length overruns: an
	// invalid packet, not a valid malformed one (the BFuzz distinction).
	pkt := l2cap.NewPacket(l2cap.CIDSignaling, []byte{0x02, 0x01, 0xFF, 0x0F})
	if err := cl.Send(d.Address(), pkt); err != nil {
		t.Fatal(err)
	}
	sum := s.Summary()
	if sum.Malformed != 0 {
		t.Fatalf("invalid packet counted malformed: %+v", sum)
	}
	if sum.InvalidTx != 1 {
		t.Fatalf("InvalidTx = %d, want 1", sum.InvalidTx)
	}
	// The device rejects it: one rejection received.
	if sum.Rejections != 1 {
		t.Fatalf("Rejections = %d, want 1", sum.Rejections)
	}
}

func TestSnifferCountsCommandRejectOnly(t *testing.T) {
	cl, d, s := snifferRig(t)
	// Negative connection response: received but NOT a rejection packet.
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConnectionReq{PSM: 0x0F01, SCID: 0x0040}, nil); err != nil {
		t.Fatal(err)
	}
	sum := s.Summary()
	if sum.Received != 1 || sum.Rejections != 0 {
		t.Fatalf("rx/rej = %d/%d, want 1/0 for a refused connect", sum.Received, sum.Rejections)
	}
	// An LE command on ACL-U against a strict responder yields a
	// Command Reject... BlueDroid tolerates, so use a stale move request
	// instead (invalid CID reject).
	if _, err := cl.SendCommand(d.Address(), &l2cap.MoveChannelReq{ICID: 0x7777}, nil); err != nil {
		t.Fatal(err)
	}
	sum = s.Summary()
	if sum.Rejections != 1 {
		t.Fatalf("Rejections = %d, want 1 after invalid-CID move", sum.Rejections)
	}
}

func TestSummaryRatios(t *testing.T) {
	cl, d, s := snifferRig(t)
	// Two malformed, one normal, one rejected response out of three.
	if _, err := cl.SendCommand(d.Address(), &l2cap.EchoReq{}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SendCommand(d.Address(), &l2cap.MoveChannelReq{ICID: 0x7777}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SendCommand(d.Address(), &l2cap.EchoReq{}, nil); err != nil {
		t.Fatal(err)
	}
	sum := s.Summary()
	if sum.Transmitted != 3 || sum.Received != 3 {
		t.Fatalf("tx/rx = %d/%d, want 3/3", sum.Transmitted, sum.Received)
	}
	wantMP := 2.0 / 3.0
	if sum.MPRatio < wantMP-0.01 || sum.MPRatio > wantMP+0.01 {
		t.Errorf("MPRatio = %.3f, want %.3f", sum.MPRatio, wantMP)
	}
	wantPR := 1.0 / 3.0
	if sum.PRRatio < wantPR-0.01 || sum.PRRatio > wantPR+0.01 {
		t.Errorf("PRRatio = %.3f, want %.3f", sum.PRRatio, wantPR)
	}
	wantEff := wantMP * (1 - wantPR)
	if sum.MutationEfficiency < wantEff-0.01 || sum.MutationEfficiency > wantEff+0.01 {
		t.Errorf("MutationEfficiency = %.3f, want %.3f", sum.MutationEfficiency, wantEff)
	}
	if sum.PacketsPerSecond <= 0 {
		t.Error("PacketsPerSecond not computed")
	}
}

func TestSeriesSampling(t *testing.T) {
	cl, d, s := snifferRig(t)
	for i := 0; i < 25; i++ {
		if _, err := cl.SendCommand(d.Address(), &l2cap.EchoReq{}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pts := s.MPSeries(10)
	if len(pts) != 3 { // 10, 20, final 25
		t.Fatalf("MPSeries(10) has %d points, want 3: %v", len(pts), pts)
	}
	if pts[0].X != 10 || pts[1].X != 20 || pts[2].X != 25 {
		t.Errorf("sample X values = %v, want 10,20,25", pts)
	}
	if pts[2].Y != 25 {
		t.Errorf("final Y = %d, want 25 (all malformed)", pts[2].Y)
	}
	// Step < 1 returns every point.
	if got := len(s.MPSeries(0)); got != 25 {
		t.Errorf("MPSeries(0) has %d points, want 25", got)
	}
}

func TestStateInferenceFullHandshake(t *testing.T) {
	cl, d, s := snifferRig(t)
	local, remote, err := cl.OpenChannel(d.Address(), l2cap.PSMAVDTP)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CloseChannel(d.Address(), local, remote); err != nil {
		t.Fatal(err)
	}
	visited := make(map[sm.State]bool)
	for _, st := range s.StatesVisited() {
		visited[st] = true
	}
	for _, want := range []sm.State{
		sm.StateClosed, sm.StateWaitConnect, sm.StateWaitConfig, sm.StateOpen,
	} {
		if !visited[want] {
			t.Errorf("inference missed %v; got %v", want, s.StatesVisited())
		}
	}
	// Inference must agree with device ground truth on this clean trace.
	truth := make(map[sm.State]bool)
	for _, st := range d.StatesVisited() {
		truth[st] = true
	}
	for st := range visited {
		if !truth[st] {
			t.Errorf("inference credits %v which the device never visited", st)
		}
	}
}

func TestStateInferenceLockstep(t *testing.T) {
	cl, d, s := snifferRig(t)
	res, err := cl.TryOpenChannel(d.Address(), l2cap.PSMAVDTP)
	if err != nil || res.Result != l2cap.ConnResultSuccess {
		t.Fatalf("open: %+v %v", res, err)
	}
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConfigurationReq{
		DCID:    res.RemoteCID,
		Options: []l2cap.ConfigOption{{Type: l2cap.OptionExtendedFlowSpec, Value: make([]byte, 16)}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range s.StatesVisited() {
		if st == sm.StateWaitIndFinalRsp {
			found = true
		}
	}
	if !found {
		t.Errorf("lockstep state not inferred; got %v", s.StatesVisited())
	}
	_ = d
}

// TestSnifferObservesEveryFrameOfPackedPacket sends one signaling
// packet packing two commands — a malformed connect followed by a
// well-formed disconnect — and checks that the malformed verdict stays
// one-per-packet while the state inferencer still sees the later frame
// (the disconnect is the only way WAIT_DISCONNECT enters the trace).
func TestSnifferObservesEveryFrameOfPackedPacket(t *testing.T) {
	cl, d, s := snifferRig(t)
	local, remote, err := cl.OpenChannel(d.Address(), l2cap.PSMAVDTP)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Summary()

	payload, _ := l2cap.AppendSignalFrame(nil, 0x41, &l2cap.ConnectionReq{PSM: 0x0101, SCID: 0x0060}, nil)
	payload, _ = l2cap.AppendSignalFrame(payload, 0x42, &l2cap.DisconnectionReq{DCID: remote, SCID: local}, nil)
	if err := cl.Send(d.Address(), l2cap.NewPacket(l2cap.CIDSignaling, payload)); err != nil {
		t.Fatal(err)
	}

	sum := s.Summary()
	if got := sum.Malformed - before.Malformed; got != 1 {
		t.Errorf("packed packet produced %d malformed verdicts, want 1", got)
	}
	found := false
	for _, st := range sum.States {
		if st == sm.StateWaitDisconnect.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("disconnect frame after the malformed one not observed; states = %v", sum.States)
	}
}

// TestSnifferCorrelatesRejectsToRequestCode checks the pendingTx map
// does its job: a Command Reject is attributed to the code of the
// request whose identifier it echoes.
func TestSnifferCorrelatesRejectsToRequestCode(t *testing.T) {
	cl, d, s := snifferRig(t)
	if _, err := cl.SendCommand(d.Address(), &l2cap.MoveChannelReq{ICID: 0x7777}, nil); err != nil {
		t.Fatal(err)
	}
	if sum := s.Summary(); sum.Rejections != 1 {
		t.Fatalf("Rejections = %d, want 1 (invalid-CID move)", sum.Rejections)
	}
	byCode := s.RejectionsByCode()
	if byCode[l2cap.CodeMoveChannelReq] != 1 {
		t.Errorf("RejectionsByCode = %v, want 1 under CodeMoveChannelReq", byCode)
	}
	if n := byCode[0]; n != 0 {
		t.Errorf("%d rejects left uncorrelated: %v", n, byCode)
	}
}

func TestSnifferIgnoresThirdPartyTraffic(t *testing.T) {
	m := radio.NewMedium(nil, radio.DefaultTiming())
	tester := radio.MustBDAddr("00:1B:DC:00:00:01")
	s := NewSniffer(m, tester)
	// Two other parties talk; the sniffer tracks only the tester.
	a, err := host.NewClient(m, radio.MustBDAddr("00:00:00:00:00:0A"), "a")
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, device.Config{
		Addr:    radio.MustBDAddr("F8:8F:CA:00:00:03"),
		Name:    "other",
		Profile: device.IOSProfile("4.2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect(d.Address()); err != nil {
		t.Fatal(err)
	}
	if err := a.Ping(d.Address()); err != nil {
		t.Fatal(err)
	}
	if sum := s.Summary(); sum.Transmitted != 0 || sum.Received != 0 {
		t.Fatalf("sniffer counted third-party traffic: %+v", sum)
	}
}
