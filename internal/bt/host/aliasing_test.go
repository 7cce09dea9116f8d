package host

// Aliasing/reuse regression tests for the packet path's ownership
// windows: anything a component retains past its window must be a copy,
// so reusing a buffer must never reach it. These tests deliberately
// hammer the reuse paths (scratch marshal buffers, the client's inbox
// slabs) after taking snapshots, and fail if a snapshot moves.

import (
	"bytes"
	"testing"

	"l2fuzz/internal/bt/l2cap"
)

// TestRecordedWireSurvivesScratchReuse pins the recorder's copy
// semantics: the trace stores wire bytes that outlive the client's
// reused marshal scratch, so later sends — which overwrite that scratch
// — must not reach recorded ops.
func TestRecordedWireSurvivesScratchReuse(t *testing.T) {
	cl, rec, target := recordRig(t, 0)
	if err := cl.Connect(target); err != nil {
		t.Fatal(err)
	}
	first := l2cap.SignalPacket(nil, 1, &l2cap.EchoReq{Data: []byte("first-packet")}, []byte{0xAA, 0xBB})
	if err := cl.Send(target, first); err != nil {
		t.Fatal(err)
	}
	ops, _ := rec.Snapshot()
	if len(ops) != 2 || ops[1].Kind != TraceSend {
		t.Fatalf("unexpected ops %v", ops)
	}
	pinned := append([]byte(nil), ops[1].Data...)

	// Hammer the scratch-reusing send path with different contents.
	for i := 0; i < 64; i++ {
		pkt := l2cap.SignalPacket(nil, uint8(i%250+2), &l2cap.EchoReq{Data: bytes.Repeat([]byte{byte(i)}, 32)}, nil)
		if err := cl.Send(target, pkt); err != nil {
			t.Fatal(err)
		}
		cl.Drain()
	}

	ops2, _ := rec.Snapshot()
	if !bytes.Equal(ops2[1].Data, pinned) {
		t.Fatalf("recorded wire bytes changed under scratch reuse:\n got %x\nwant %x", ops2[1].Data, pinned)
	}
	if !bytes.Equal(pinned, first.AppendTo(nil)) {
		t.Fatalf("recorded wire bytes differ from the packet's marshal")
	}

	// Reset rewinds the recorder's chunk and new sends refill it in
	// place; a snapshot taken before holds its own copy.
	held := make([][]byte, len(ops2))
	for i, op := range ops2 {
		held[i] = append([]byte(nil), op.Data...)
	}
	rec.Reset()
	for i := 0; i < 64; i++ {
		pkt := l2cap.SignalPacket(nil, uint8(i%250+2), &l2cap.EchoReq{Data: bytes.Repeat([]byte{^byte(i)}, 32)}, nil)
		if err := cl.Send(target, pkt); err != nil {
			t.Fatal(err)
		}
		cl.Drain()
	}
	if len(rec.ops) != 64 {
		t.Fatalf("recorder holds %d ops after Reset and 64 sends, want 64", len(rec.ops))
	}
	for i, op := range ops2 {
		if !bytes.Equal(op.Data, held[i]) {
			t.Fatalf("op %d of a snapshot taken before Reset changed under new sends:\n got %x\nwant %x", i, op.Data, held[i])
		}
	}
}

// TestDrainBatchStableUntilNextDrain pins the Drain ownership window
// over the client's two inbox slabs: a drained batch stays byte-stable
// while new responses land, and the Drain after next rewinds its slab,
// so traffic after that overwrites it in place — the slab is reused,
// not regrown — while explicit copies stay unchanged.
func TestDrainBatchStableUntilNextDrain(t *testing.T) {
	cl, _, target := recordRig(t, 0)
	if err := cl.Connect(target); err != nil {
		t.Fatal(err)
	}
	echo := func(data []byte) uint8 {
		t.Helper()
		id, err := cl.SendCommand(target, &l2cap.EchoReq{Data: data}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// Warm both slabs up to a 32-response round, so that nothing below
	// outgrows them: a regrown slab would leave an old batch intact
	// whatever the client did.
	for round := 0; round < 2; round++ {
		for i := 0; i < 32; i++ {
			echo(bytes.Repeat([]byte{0xEE}, 48))
		}
		cl.Drain()
	}
	// Round 1: provoke an echo response and drain it.
	id := echo([]byte("round-one"))
	batch := cl.Drain()
	if len(batch) != 1 {
		t.Fatalf("drained %d packets, want the one echo response", len(batch))
	}
	// held keeps the payload's slice header: the batch's packet headers
	// are recycled along with its slab, so only held still points at
	// the slab bytes once the window has closed.
	held := batch[0].Payload
	snap := append([]byte(nil), held...)

	// New traffic arrives while the batch is still borrowed: it lands in
	// the other slab and must not touch the batch, however much of it
	// there is.
	for i := 0; i < 32; i++ {
		echo(bytes.Repeat([]byte{0xEE}, 48))
	}
	if !bytes.Equal(held, snap) {
		t.Fatalf("drained payload changed while borrowed:\n got %x\nwant %x", held, snap)
	}

	// The next Drain ends the window and rewinds the batch's slab; one
	// same-sized response then lands exactly where the batch was.
	cl.Drain()
	echo(bytes.Repeat([]byte{0x11}, len("round-one")))
	again := cl.Drain()
	if len(again) != 1 {
		t.Fatalf("drained %d packets, want the one echo response", len(again))
	}
	if &again[0].Payload[0] != &held[0] {
		t.Fatal("the batch before last was not overwritten in place: the slab was regrown instead of reused")
	}
	if bytes.Equal(held, snap) {
		t.Fatal("the batch before last still holds its old bytes after its slab was refilled")
	}
	if !bytes.Equal(snap, l2cap.SignalPacket(nil, id, &l2cap.EchoRsp{Data: []byte("round-one")}, nil).Payload) {
		t.Fatalf("explicit copy changed: %x", snap)
	}
}

// TestWarmRoundTripDoesNotAllocate pins the inbox slabs' steady state:
// once they have grown to a round's traffic, a SendCommand→Drain round
// trip through the device and back allocates nothing, with a trace
// recorder attached: a recorded send only copies into the recorder's
// current chunk.
func TestWarmRoundTripDoesNotAllocate(t *testing.T) {
	cl, _, target := recordRig(t, 0)
	if err := cl.Connect(target); err != nil {
		t.Fatal(err)
	}
	echo := &l2cap.EchoReq{Data: []byte("warm")}
	round := func() {
		if _, err := cl.SendCommand(target, echo, nil); err != nil {
			t.Fatal(err)
		}
		if len(cl.Drain()) != 1 {
			t.Fatal("no echo response drained")
		}
	}
	round()
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("warm SendCommand→Drain round trip allocates %.1f times", n)
	}
}
