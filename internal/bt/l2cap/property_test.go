package l2cap

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Property: any byte slice either fails to parse as a basic frame, or
// re-marshals to a prefix-equal wire image (decode∘encode is lossless).
func TestQuickPacketDecodeEncodeLossless(t *testing.T) {
	f := func(raw []byte) bool {
		p, err := ParsePacket(raw)
		if err != nil {
			return true // rejecting is fine; crashing is not
		}
		return bytes.Equal(p.AppendTo(nil), raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: NewPacket always produces a self-consistent frame that
// survives a round trip for any payload that fits.
func TestQuickNewPacketRoundTrip(t *testing.T) {
	f := func(cid uint16, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		in := NewPacket(CID(cid), payload)
		out, err := ParsePacket(in.AppendTo(nil))
		if err != nil {
			return false
		}
		return out.ChannelID == CID(cid) && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: ConnectionReq round-trips for every (PSM, SCID) pair.
func TestQuickConnectionReqRoundTrip(t *testing.T) {
	f := func(psm, scid uint16) bool {
		in := ConnectionReq{PSM: PSM(psm), SCID: CID(scid)}
		var out ConnectionReq
		if err := out.UnmarshalData(in.AppendData(nil)); err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ConfigurationReq with arbitrary option bytes either rejects or
// round-trips its DCID and flags.
func TestQuickConfigurationReqTolerance(t *testing.T) {
	f := func(dcid, flags uint16, optBytes []byte) bool {
		data := putU16(nil, dcid)
		data = putU16(data, flags)
		data = append(data, optBytes...)
		var req ConfigurationReq
		if err := req.UnmarshalData(data); err != nil {
			return true
		}
		return req.DCID == CID(dcid) && req.Flags == flags
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: DecodeCommand on arbitrary frame data never panics; when it
// succeeds for a fixed-layout command the re-marshaled data has the same
// length class the decoder accepted.
func TestQuickDecodeCommandNoPanic(t *testing.T) {
	f := func(code uint8, data []byte) bool {
		cmd, err := DecodeCommand(Frame{Code: CommandCode(code), Identifier: 1, Data: data})
		if err != nil {
			return true
		}
		_ = cmd.AppendData(nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// Property: ParseSignals never panics and frames re-marshal into a
// reconstruction with the same total length for garbage-free payloads.
func TestQuickParseSignalsReassembly(t *testing.T) {
	f := func(raw []byte) bool {
		frames, err := ParseSignals(raw)
		if err != nil {
			return true
		}
		var rebuilt []byte
		for _, fr := range frames {
			rebuilt = append(rebuilt, uint8(fr.Code), fr.Identifier, byte(len(fr.Data)), byte(len(fr.Data)>>8))
			rebuilt = append(append(rebuilt, fr.Data...), fr.Tail...)
		}
		return bytes.Equal(rebuilt, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: IsAbnormalPSM agrees with the structural PSM rule and the
// Table-IV bands — an odd PSM outside the bands is never abnormal, and
// every even PSM is abnormal.
func TestQuickPSMClassification(t *testing.T) {
	f := func(v uint16) bool {
		p := PSM(v)
		if v%2 == 0 && !IsAbnormalPSM(p) {
			return false
		}
		inBand := false
		for _, r := range AbnormalPSMRanges() {
			if r.Contains(p) {
				inBand = true
			}
		}
		if !inBand && v%2 == 1 && IsAbnormalPSM(p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
