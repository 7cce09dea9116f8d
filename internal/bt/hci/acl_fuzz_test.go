package hci

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzACLReassembly feeds a stream of raw ACL packets through ParseACL
// and one Reassembler. The input is a sequence of chunks, each a length
// byte followed by that many bytes of raw packet (the last chunk takes
// whatever is left). Every packet ParseACL accepts must re-encode byte
// for byte through AppendTo, and every frame the reassembler completes
// must hold at least its 4-byte L2CAP header plus the length that header
// declares.
func FuzzACLReassembly(f *testing.F) {
	f.Add(aclStream(Fragment(1, buildL2CAPFrame(40), 16)))
	f.Add(aclStream(Fragment(2, append(buildL2CAPFrame(4), 0xDE, 0xAD), DefaultACLBufferSize)))
	// A frame cut short by the next first fragment.
	f.Add(aclStream(append(Fragment(3, buildL2CAPFrame(60), 25)[:1], Fragment(3, buildL2CAPFrame(4), 25)...)))
	f.Add(aclStream([]ACLPacket{{Handle: 4, Boundary: BoundaryContinuation, Data: []byte{1}}}))
	f.Add([]byte{3, 0x01, 0x20, 0x05}) // shorter than an ACL header
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, stream []byte) {
		var r Reassembler
		for len(stream) > 0 {
			n := min(int(stream[0]), len(stream)-1)
			raw := stream[1 : 1+n]
			stream = stream[1+n:]
			p, err := ParseACL(raw)
			if err != nil {
				continue
			}
			if got := p.AppendTo(nil); !bytes.Equal(got, raw) {
				t.Fatalf("ParseACL then AppendTo changed the packet\n got %x\nwant %x", got, raw)
			}
			frame, done, err := r.Push(p)
			if err != nil || !done {
				continue
			}
			if len(frame) < 4 || len(frame) < 4+int(binary.LittleEndian.Uint16(frame[0:2])) {
				t.Fatalf("completed frame %x is shorter than its declared length", frame)
			}
		}
	})
}

// aclStream encodes packets as the chunked stream FuzzACLReassembly
// reads. Each packet's wire form must fit in 255 bytes.
func aclStream(pkts []ACLPacket) []byte {
	var out []byte
	for _, p := range pkts {
		raw := p.AppendTo(nil)
		out = append(out, byte(len(raw)))
		out = append(out, raw...)
	}
	return out
}
