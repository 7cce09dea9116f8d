package l2cap

import (
	"bytes"
	"testing"
)

// FuzzDecodeBorrowDiscipline fuzzes the borrow/release discipline of the
// zero-copy signaling decode path. AppendSignals and Decoder.Decode are
// allowed to alias the input buffer, but AppendData(nil) must hand back
// owned bytes: after the caller re-encodes a command, scribbling over
// the borrowed input buffer must not change the re-encoded bytes, and a
// fresh decode of a pristine copy must agree with them.
func FuzzDecodeBorrowDiscipline(f *testing.F) {
	f.Add(SignalPacket(nil, 1, &EchoReq{Data: []byte("seed")}, nil).Payload)
	f.Add(SignalPacket(nil, 2, &ConnectionReq{PSM: 0x0001, SCID: 0x0040}, []byte{0xDE, 0xAD}).Payload)
	f.Add(SignalPacket(nil, 3, &CommandReject{Reason: 2, ReasonData: []byte{1, 2, 3, 4}}, nil).Payload)
	f.Add([]byte{0x04, 0x09, 0x08, 0x00, 0x40, 0x00, 0x00, 0x00, 0x01, 0x02, 0x02, 0x00})
	f.Add([]byte{})
	// A five-CID enhanced credit-based request, then a two-CID one: the
	// decoder's cached command decodes the second list over the first.
	f.Add(append(SignalPacket(nil, 4, &CreditBasedConnReq{SPSM: 0x0080, MTU: 64, MPS: 64, InitialCredits: 1,
		SCIDs: []CID{0x0040, 0x0041, 0x0042, 0x0043, 0x0044}}, nil).Payload,
		SignalPacket(nil, 5, &CreditBasedConnReq{SPSM: 0x0080, MTU: 64, MPS: 64, InitialCredits: 1,
			SCIDs: []CID{0x0050, 0x0051}}, nil).Payload...))
	f.Add(SignalPacket(nil, 6, &CreditBasedReconfReq{MTU: 64, MPS: 64, DCIDs: []CID{0x0040, 0x0041}}, []byte{0xAA}).Payload)

	f.Fuzz(func(t *testing.T, payload []byte) {
		borrowed := append([]byte(nil), payload...)
		frames, err := AppendSignals(nil, borrowed)
		if err != nil {
			return
		}

		// Re-encode every decodable command while the borrow is live.
		var dec Decoder
		type snap struct {
			idx  int
			code CommandCode
			data []byte
		}
		var snaps []snap
		for i, fr := range frames {
			cmd, err := dec.Decode(fr)
			if err != nil {
				continue
			}
			snaps = append(snaps, snap{idx: i, code: fr.Code, data: cmd.AppendData(nil)})
		}

		// End of the borrow window: the buffer is reused for something else.
		for i := range borrowed {
			borrowed[i] ^= 0xFF
		}

		// A fresh decode of the pristine payload must agree with the bytes
		// snapshotted before the scribble — anything else means a command
		// retained the borrowed buffer past AppendData.
		fresh, err := ParseSignals(payload)
		if err != nil {
			t.Fatalf("ParseSignals diverged on re-decode: %v", err)
		}
		for _, s := range snaps {
			cmd, err := DecodeCommand(fresh[s.idx])
			if err != nil {
				t.Fatalf("frame %d decoded once but not twice: %v", s.idx, err)
			}
			if got := cmd.AppendData(nil); !bytes.Equal(got, s.data) {
				t.Fatalf("frame %d (%v): re-encoded bytes changed after the borrowed buffer was scribbled\n got %x\nwant %x",
					s.idx, s.code, got, s.data)
			}
		}
	})
}
