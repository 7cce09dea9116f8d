package l2cap

import (
	"bytes"
	"errors"
	"testing"
)

func TestNewPacketConsistency(t *testing.T) {
	p := NewPacket(CIDSignaling, []byte{1, 2, 3})
	if p.Length != 3 {
		t.Fatalf("Length = %d, want 3", p.Length)
	}
	if !p.IsSignaling() {
		t.Fatalf("IsSignaling() = false, want true")
	}
	if len(p.Payload) != int(p.Length) {
		t.Fatalf("payload of %d bytes beyond declared Length %d, want none", len(p.Payload), p.Length)
	}
}

func TestPacketMarshalRoundTrip(t *testing.T) {
	tests := []struct {
		name    string
		cid     CID
		payload []byte
	}{
		{name: "empty payload", cid: CIDSignaling, payload: nil},
		{name: "signaling", cid: CIDSignaling, payload: []byte{0x02, 0x01, 0x04, 0x00, 1, 2, 3, 4}},
		{name: "dynamic cid", cid: 0x0040, payload: bytes.Repeat([]byte{0xAB}, 100)},
		{name: "max cid", cid: 0xFFFF, payload: []byte{0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := NewPacket(tt.cid, tt.payload)
			out, err := ParsePacket(in.AppendTo(nil))
			if err != nil {
				t.Fatalf("ParsePacket() error = %v", err)
			}
			if out.ChannelID != tt.cid {
				t.Errorf("ChannelID = %v, want %v", out.ChannelID, tt.cid)
			}
			if out.Length != in.Length {
				t.Errorf("Length = %d, want %d", out.Length, in.Length)
			}
			if !bytes.Equal(out.Payload, tt.payload) {
				t.Errorf("Payload = %x, want %x", out.Payload, tt.payload)
			}
		})
	}
}

func TestUnmarshalPacketErrors(t *testing.T) {
	tests := []struct {
		name    string
		raw     []byte
		wantErr error
	}{
		{name: "empty", raw: nil, wantErr: ErrShortPacket},
		{name: "three bytes", raw: []byte{1, 2, 3}, wantErr: ErrShortPacket},
		{name: "declared too long", raw: []byte{0x05, 0x00, 0x01, 0x00, 0xAA}, wantErr: ErrLengthMismatch},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParsePacket(tt.raw); !errors.Is(err, tt.wantErr) {
				t.Fatalf("ParsePacket() error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestGarbagePacketRoundTripsThroughWire(t *testing.T) {
	base := SignalPacket(nil, 1, &ConnectionReq{PSM: PSMSDP, SCID: 0x0040}, []byte{0xDE, 0xAD})
	out, err := ParsePacket(base.AppendTo(nil))
	if err != nil {
		t.Fatalf("ParsePacket() error = %v", err)
	}
	if got := out.Payload[out.Length:]; !bytes.Equal(got, []byte{0xDE, 0xAD}) {
		t.Fatalf("bytes beyond the declared length = %x, want dead", got)
	}
	frames, err := ParseSignals(out.Payload)
	if err != nil {
		t.Fatalf("ParseSignals() error = %v", err)
	}
	if len(frames) != 1 {
		t.Fatalf("len(frames) = %d, want 1", len(frames))
	}
	if !bytes.Equal(frames[0].Tail, []byte{0xDE, 0xAD}) {
		t.Fatalf("frame Tail = %x, want dead", frames[0].Tail)
	}
}

func TestFigure7MutationExample(t *testing.T) {
	// Reproduce the paper's Figure 7: a Config Req for DCID 0x0040 with an
	// MTU option, mutated to DCID 0x7B8F with garbage D2 3A 91 0E.
	req := &ConfigurationReq{
		DCID:    0x0040,
		Options: []ConfigOption{MTUOption(0x2000)},
	}
	normal := SignalPacket(nil, 0x06, req, nil)
	if normal.Length != 0x0C {
		t.Fatalf("normal declared payload length = %#x, want 0x0C as in Figure 7", normal.Length)
	}

	req.DCID = 0x7B8F
	mutated := SignalPacket(nil, 0x06, req, []byte{0xD2, 0x3A, 0x91, 0x0E})
	if mutated.Length != 0x0C {
		t.Fatalf("mutated declared length = %#x, want unchanged 0x0C", mutated.Length)
	}
	if got := len(mutated.AppendTo(nil)); got != HeaderSize+0x0C+4 {
		t.Fatalf("mutated wire size = %d, want %d", got, HeaderSize+0x0C+4)
	}

	frames, err := ParseSignals(mutated.Payload)
	if err != nil {
		t.Fatalf("ParseSignals() error = %v", err)
	}
	cmd, err := DecodeCommand(frames[0])
	if err != nil {
		t.Fatalf("DecodeCommand() error = %v", err)
	}
	got, ok := cmd.(*ConfigurationReq)
	if !ok {
		t.Fatalf("decoded %T, want *ConfigurationReq", cmd)
	}
	if got.DCID != 0x7B8F {
		t.Fatalf("DCID = %v, want 0x7B8F", got.DCID)
	}
}
