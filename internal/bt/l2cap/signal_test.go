package l2cap

import (
	"bytes"
	"errors"
	"testing"
)

func TestParseSignalsMultipleCommands(t *testing.T) {
	var payload []byte
	payload, _ = AppendSignalFrame(payload, 1, &InformationReq{InfoType: InfoTypeExtendedFeatures}, nil)
	payload, _ = AppendSignalFrame(payload, 2, &EchoReq{Data: []byte{0xAA}}, nil)
	payload, _ = AppendSignalFrame(payload, 3, &DisconnectionReq{DCID: 0x0040, SCID: 0x0041}, nil)

	frames, err := ParseSignals(payload)
	if err != nil {
		t.Fatalf("ParseSignals() error = %v", err)
	}
	if len(frames) != 3 {
		t.Fatalf("len(frames) = %d, want 3", len(frames))
	}
	wantCodes := []CommandCode{CodeInformationReq, CodeEchoReq, CodeDisconnectionReq}
	for i, f := range frames {
		if f.Code != wantCodes[i] {
			t.Errorf("frames[%d].Code = %v, want %v", i, f.Code, wantCodes[i])
		}
		if f.Identifier != uint8(i+1) {
			t.Errorf("frames[%d].Identifier = %d, want %d", i, f.Identifier, i+1)
		}
	}
}

func TestParseSignalsTrailingFragmentBecomesTail(t *testing.T) {
	payload, _ := AppendSignalFrame(nil, 1, &EchoReq{}, nil)
	payload = append(payload, 0xDE, 0xAD) // too short for another header

	frames, err := ParseSignals(payload)
	if err != nil {
		t.Fatalf("ParseSignals() error = %v", err)
	}
	if len(frames) != 1 {
		t.Fatalf("len(frames) = %d, want 1", len(frames))
	}
	if !bytes.Equal(frames[0].Tail, []byte{0xDE, 0xAD}) {
		t.Fatalf("Tail = %x, want dead", frames[0].Tail)
	}
}

func TestParseSignalsErrors(t *testing.T) {
	tests := []struct {
		name    string
		payload []byte
		wantErr error
	}{
		{name: "too short for header", payload: []byte{0x02}, wantErr: ErrShortCommand},
		{name: "declared data overruns", payload: []byte{0x02, 0x01, 0xFF, 0x00}, wantErr: ErrDataLength},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseSignals(tt.payload); !errors.Is(err, tt.wantErr) {
				t.Fatalf("ParseSignals() error = %v, want %v", err, tt.wantErr)
			}
			// Every signaling-channel reader tests only err != nil, so a
			// malformed payload must cost no error formatting.
			scratch := make([]Frame, 0, 4)
			if n := testing.AllocsPerRun(100, func() { _, _ = AppendSignals(scratch[:0], tt.payload) }); n != 0 {
				t.Errorf("AppendSignals() allocates %.1f times on a malformed payload", n)
			}
		})
	}
}

func TestDecodeCommandUnknownCode(t *testing.T) {
	_, err := DecodeCommand(Frame{Code: 0x7F})
	if !errors.Is(err, ErrUnknownCode) {
		t.Fatalf("DecodeCommand() error = %v, want ErrUnknownCode", err)
	}
}

// TestDecoderUnknownCodeAllocatesNothing pins the unknown-code error's
// cost and text: a peer under fuzz sends unknown codes on the hot path,
// so decoding one allocates nothing, yet the error still names the code
// and matches ErrUnknownCode.
func TestDecoderUnknownCodeAllocatesNothing(t *testing.T) {
	var d Decoder
	fr := Frame{Code: 0x7F, Identifier: 1}
	_, err := d.Decode(fr)
	if !errors.Is(err, ErrUnknownCode) || err.Error() != "l2cap: unknown command code: 0x7F" {
		t.Fatalf("Decode() error = %v, want ErrUnknownCode naming 0x7F", err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = d.Decode(fr) }); n != 0 {
		t.Errorf("Decode() allocates %.1f times on an unknown code", n)
	}
}

// TestDecodeCommandAliasesFrameData pins DecodeCommand's ownership: each
// call allocates a fresh command struct, but the struct's byte fields
// borrow the frame's Data rather than copying it.
func TestDecodeCommandAliasesFrameData(t *testing.T) {
	fr := Frame{Code: CodeEchoReq, Identifier: 1, Data: []byte{1, 2, 3}}
	a, err := DecodeCommand(fr)
	if err != nil {
		t.Fatalf("DecodeCommand() error = %v", err)
	}
	b, err := DecodeCommand(fr)
	if err != nil {
		t.Fatalf("DecodeCommand() error = %v", err)
	}
	if a == b {
		t.Fatal("two DecodeCommand calls returned the same struct")
	}
	fr.Data[0] = 0xFF
	if got := a.(*EchoReq).Data[0]; got != 0xFF {
		t.Fatalf("EchoReq.Data[0] = %#x after the frame changed, want 0xff (aliased)", got)
	}
}

func TestCommandCodeProperties(t *testing.T) {
	codes := AllCommandCodes()
	if len(codes) != NumCommandCodes {
		t.Fatalf("AllCommandCodes() returned %d codes, want %d", len(codes), NumCommandCodes)
	}
	seen := make(map[CommandCode]bool, len(codes))
	for _, c := range codes {
		if c < CodeCommandReject || c > CodeCreditBasedReconfRsp {
			t.Errorf("code %v outside the defined range", c)
		}
		if seen[c] {
			t.Errorf("code %v duplicated", c)
		}
		seen[c] = true
		if c.String() == "" {
			t.Errorf("code %v has empty name", c)
		}
	}
}
