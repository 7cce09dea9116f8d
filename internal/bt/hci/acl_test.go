package hci

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func TestACLMarshalRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		pkt  ACLPacket
	}{
		{"first fragment", ACLPacket{Handle: 0x001, Boundary: BoundaryFirstFlushable, Data: []byte{1, 2, 3}}},
		{"continuation", ACLPacket{Handle: 0xEFF, Boundary: BoundaryContinuation, Data: []byte{4}}},
		{"broadcast", ACLPacket{Handle: 0x123, Boundary: BoundaryFirstFlushable, Broadcast: 1, Data: nil}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, err := ParseACL(tt.pkt.AppendTo(nil))
			if err != nil {
				t.Fatalf("ParseACL() error = %v", err)
			}
			if out.Handle != tt.pkt.Handle || out.Boundary != tt.pkt.Boundary || out.Broadcast != tt.pkt.Broadcast {
				t.Errorf("header mismatch: got %+v, want %+v", out, tt.pkt)
			}
			if !bytes.Equal(out.Data, tt.pkt.Data) {
				t.Errorf("data = %x, want %x", out.Data, tt.pkt.Data)
			}
		})
	}
}

func TestUnmarshalACLErrors(t *testing.T) {
	if _, err := ParseACL([]byte{1, 2}); !errors.Is(err, ErrShortACL) {
		t.Errorf("short packet error = %v, want ErrShortACL", err)
	}
	bad := ACLPacket{Handle: 1, Boundary: BoundaryFirstFlushable, Data: []byte{1, 2, 3}}.AppendTo(nil)
	binary.LittleEndian.PutUint16(bad[2:4], 99)
	if _, err := ParseACL(bad); !errors.Is(err, ErrACLLength) {
		t.Errorf("length mismatch error = %v, want ErrACLLength", err)
	}
}

func buildL2CAPFrame(payloadLen int) []byte {
	frame := make([]byte, 4+payloadLen)
	binary.LittleEndian.PutUint16(frame[0:2], uint16(payloadLen))
	binary.LittleEndian.PutUint16(frame[2:4], 0x0001)
	for i := 0; i < payloadLen; i++ {
		frame[4+i] = byte(i)
	}
	return frame
}

func TestFragmentBoundaries(t *testing.T) {
	frame := buildL2CAPFrame(2500)
	frags := Fragment(0x0042, frame, 1021)
	if len(frags) != 3 {
		t.Fatalf("got %d fragments, want 3", len(frags))
	}
	if frags[0].Boundary != BoundaryFirstFlushable {
		t.Error("first fragment must have first-flushable boundary")
	}
	for _, f := range frags[1:] {
		if f.Boundary != BoundaryContinuation {
			t.Error("later fragments must be continuations")
		}
	}
	total := 0
	for _, f := range frags {
		if f.Handle != 0x0042 {
			t.Error("fragment handle mismatch")
		}
		total += len(f.Data)
	}
	if total != len(frame) {
		t.Errorf("fragments carry %d bytes, want %d", total, len(frame))
	}
}

func TestFragmentDefaultsBufSize(t *testing.T) {
	frame := buildL2CAPFrame(10)
	frags := Fragment(1, frame, 0)
	if len(frags) != 1 {
		t.Fatalf("got %d fragments, want 1", len(frags))
	}
}

func TestReassemblerRebuildsAcrossFragments(t *testing.T) {
	frame := buildL2CAPFrame(2500)
	var r Reassembler
	var got []byte
	for i, f := range Fragment(1, frame, 333) {
		out, done, err := r.Push(f)
		if err != nil {
			t.Fatalf("Push(%d) error = %v", i, err)
		}
		if done {
			got = out
		}
	}
	if !bytes.Equal(got, frame) {
		t.Fatalf("reassembled %d bytes, want %d identical bytes", len(got), len(frame))
	}
}

func TestReassemblerKeepsGarbageTail(t *testing.T) {
	// A frame whose declared length is 4 but which carries 8 payload
	// bytes (garbage tail) must come back intact when sent in one
	// fragment.
	frame := buildL2CAPFrame(4)
	frame = append(frame, 0xDE, 0xAD, 0xBE, 0xEF)
	var r Reassembler
	out, done, err := r.Push(Fragment(1, frame, 1021)[0])
	if err != nil || !done {
		t.Fatalf("Push() = (done=%v, err=%v)", done, err)
	}
	if !bytes.Equal(out, frame) {
		t.Fatalf("reassembled frame lost the garbage tail: %x", out)
	}
}

func TestReassemblerErrors(t *testing.T) {
	var r Reassembler
	_, _, err := r.Push(ACLPacket{Boundary: BoundaryContinuation, Data: []byte{1}})
	if !errors.Is(err, ErrReassembly) {
		t.Errorf("continuation-first error = %v, want ErrReassembly", err)
	}
	_, _, err = r.Push(ACLPacket{Boundary: 0, Data: []byte{1}})
	if !errors.Is(err, ErrReassembly) {
		t.Errorf("bad boundary error = %v, want ErrReassembly", err)
	}
}

func TestReassemblerDiscardsTruncatedFrame(t *testing.T) {
	var r Reassembler
	// Start a long frame but never finish it...
	frags := Fragment(1, buildL2CAPFrame(2000), 500)
	if _, done, err := r.Push(frags[0]); done || err != nil {
		t.Fatalf("first push = (done=%v, err=%v)", done, err)
	}
	// ...then a fresh frame starts; the stale buffer must be dropped.
	fresh := buildL2CAPFrame(4)
	out, done, err := r.Push(Fragment(1, fresh, 1021)[0])
	if err != nil || !done {
		t.Fatalf("fresh push = (done=%v, err=%v)", done, err)
	}
	if !bytes.Equal(out, fresh) {
		t.Fatalf("got %x, want fresh frame", out)
	}
}

// Property: fragment→reassemble is the identity for any payload size and
// buffer size.
func TestQuickFragmentReassembleIdentity(t *testing.T) {
	f := func(payloadLen uint16, bufSize uint16) bool {
		frame := buildL2CAPFrame(int(payloadLen % 4096))
		var r Reassembler
		var got []byte
		for _, frag := range Fragment(7, frame, int(bufSize%2048)) {
			out, done, err := r.Push(frag)
			if err != nil {
				return false
			}
			if done {
				got = out
			}
		}
		return bytes.Equal(got, frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ACL AppendTo/ParseACL is lossless for in-range headers.
func TestQuickACLRoundTrip(t *testing.T) {
	f := func(handle uint16, boundary, broadcast uint8, data []byte) bool {
		in := ACLPacket{
			Handle:    ConnHandle(handle % uint16(MaxConnHandle+1)),
			Boundary:  BoundaryFlag(boundary % 4),
			Broadcast: broadcast % 4,
			Data:      data,
		}
		out, err := ParseACL(in.AppendTo(nil))
		if err != nil {
			return false
		}
		return out.Handle == in.Handle && out.Boundary == in.Boundary &&
			out.Broadcast == in.Broadcast && bytes.Equal(out.Data, in.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
