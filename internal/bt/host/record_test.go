package host

import (
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
)

// recordRig builds a medium with one recorded client and one echo-happy
// target device.
func recordRig(t *testing.T, limit int) (*Client, *TraceRecorder, radio.BDAddr) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	d, err := device.New(m, device.Config{
		Addr:    radio.MustBDAddr("AA:00:00:00:00:01"),
		Name:    "target",
		Profile: device.BlueZProfile("5.0", "fp"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(m, radio.MustBDAddr("AA:00:00:00:00:02"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder(limit)
	cl.SetRecorder(rec)
	return cl, rec, d.Address()
}

// TestRecorderCapturesClientOps pins what the recorder sees: successful
// pages, transmitted frames (their exact wire bytes) and link drops, in
// order — the operation alphabet replay is built on.
func TestRecorderCapturesClientOps(t *testing.T) {
	cl, rec, target := recordRig(t, 0)
	if ops, truncated := rec.Snapshot(); ops != nil || truncated {
		t.Fatalf("empty recorder snapshot = %v, %v; want nil, false", ops, truncated)
	}
	if err := cl.Connect(target); err != nil {
		t.Fatal(err)
	}
	pkt := l2cap.SignalPacket(nil, 1, &l2cap.EchoReq{Data: []byte("hi")}, []byte{0xAA})
	if err := cl.Send(target, pkt); err != nil {
		t.Fatal(err)
	}
	cl.Disconnect(target)

	ops, truncated := rec.Snapshot()
	if truncated {
		t.Fatal("tiny trace reported truncated")
	}
	kinds := make([]TraceOpKind, len(ops))
	for i, op := range ops {
		kinds[i] = op.Kind
	}
	want := []TraceOpKind{TraceConnect, TraceSend, TraceDisconnect}
	if len(kinds) != len(want) {
		t.Fatalf("recorded ops %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("recorded ops %v, want %v", kinds, want)
		}
	}
	if string(ops[1].Data) != string(pkt.AppendTo(nil)) {
		t.Errorf("recorded wire bytes differ from the marshaled packet")
	}
	if ops[0].Data != nil || ops[2].Data != nil {
		t.Errorf("connect and disconnect ops carry data %v and %v, want nil", ops[0].Data, ops[2].Data)
	}

	// A replayed snapshot is a copy: later ops must not reach it.
	_ = cl.Connect(target)
	if len(rec.ops) != 4 {
		t.Fatalf("recorder has %d ops, want 4", len(rec.ops))
	}
	if len(ops) != 3 {
		t.Errorf("snapshot grew with the recorder")
	}

	rec.Reset()
	if len(rec.ops) != 0 || rec.truncated {
		t.Errorf("Reset left ops=%d truncated=%v", len(rec.ops), rec.truncated)
	}
}

// TestRecorderTruncation: outgrowing the limit keeps the head (a
// headless trace could never replay) and marks the trace truncated.
func TestRecorderTruncation(t *testing.T) {
	cl, rec, target := recordRig(t, 2)
	if err := cl.Connect(target); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_ = cl.Send(target, l2cap.SignalPacket(nil, uint8(i+1), &l2cap.EchoReq{}, nil))
	}
	ops, truncated := rec.Snapshot()
	if !truncated || len(ops) != 2 {
		t.Fatalf("got %d ops truncated=%v, want the first 2 ops marked truncated", len(ops), truncated)
	}
	if ops[0].Kind != TraceConnect {
		t.Errorf("truncation dropped the trace head")
	}
	rec.Reset()
	if rec.truncated {
		t.Error("Reset did not clear truncation")
	}
}

// TestSendRawBytesUntouched: SendRaw must put the given bytes on the
// air verbatim — the device answers the echo exactly as if the packet
// had gone through Send.
func TestSendRawBytesUntouched(t *testing.T) {
	cl, _, target := recordRig(t, 0)
	if err := cl.Connect(target); err != nil {
		t.Fatal(err)
	}
	wire := l2cap.SignalPacket(nil, 7, &l2cap.EchoReq{Data: []byte("raw")}, nil).AppendTo(nil)
	if err := cl.SendRaw(target, wire); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range cl.DrainCommands() {
		if rsp, ok := cmd.(*l2cap.EchoRsp); ok && string(rsp.Data) == "raw" {
			return
		}
	}
	t.Fatal("no echo response to a raw-sent echo request")
}
