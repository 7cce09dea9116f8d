package l2cap

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fieldOffsets lays out code's data fields from the classification
// table: the wire offset of every field, with an ECRED CID list expanded
// into one entry per CID of the encoded data. Every field is two bytes
// except CONT_ID (one byte) and the variable tails (OPT, DATA,
// REASON_DATA), which always come last.
func fieldOffsets(code CommandCode, data []byte) (names []string, offsets []int) {
	off := 0
	for _, f := range commandFields[code] {
		switch f.Name {
		case "OPT", "DATA", "REASON_DATA":
			return names, offsets
		case "SCID_LIST", "DCID_LIST":
			for ; off+2 <= len(data); off += 2 {
				names, offsets = append(names, f.Name), append(offsets, off)
			}
			return names, offsets
		case "CONT_ID":
			names, offsets = append(names, f.Name), append(offsets, off)
			off++
		default:
			names, offsets = append(names, f.Name), append(offsets, off)
			off += 2
		}
	}
	return names, offsets
}

// FuzzAppendCoreFields checks the scratch-reuse contract of
// AppendCoreFields and AppendCreditFields on any decodable signaling
// frame. Both are called on a scratch last filled by a five-CID
// CreditBasedReconfReq (the core scratch also holds a PSM and a
// controller ID of another command). The result must hold exactly the
// fields the classification table lists for the decoded command, so no
// stale entry survives, and a sentinel written through each returned
// pointer must come back out of AppendData at that field's wire offset,
// with every other byte unchanged.
func FuzzAppendCoreFields(f *testing.F) {
	f.Add(SignalPacket(nil, 1, &ConnectionReq{PSM: PSMSDP, SCID: 0x0040}, nil).Payload)
	f.Add(SignalPacket(nil, 2, &CreditBasedConnReq{SPSM: 0x0080, MTU: 64, MPS: 64, InitialCredits: 1,
		SCIDs: []CID{0x0040, 0x0041}}, []byte{0xEE}).Payload)

	// The stale scratch holds a five-CID CreditBasedReconfReq's fields
	// plus a CreateChannelReq's PSM and controller ID, so a refill that
	// leaves any member behind shows.
	stale := &CreditBasedReconfReq{MTU: 0x1111, MPS: 0x2222,
		DCIDs: []CID{0x0040, 0x0041, 0x0042, 0x0043, 0x0044}}
	create := &CreateChannelReq{PSM: 0x0101, SCID: 0x0045, ControllerID: 3}
	staleData, createData := stale.AppendData(nil), create.AppendData(nil)
	staleCore := func() CoreFields {
		core := stale.AppendCoreFields(CoreFields{})
		withPSM := create.AppendCoreFields(CoreFields{})
		core.PSM, core.ControllerIDs = withPSM.PSM, withPSM.ControllerIDs
		return core
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		frames, err := AppendSignals(nil, payload)
		if err != nil {
			return
		}
		var dec Decoder
		for _, fr := range frames {
			cmd, err := dec.Decode(fr)
			if err != nil {
				continue
			}
			core := cmd.AppendCoreFields(staleCore())
			var credit []*uint16
			cc, isCredit := cmd.(CreditFielder)
			if isCredit {
				credit = cc.AppendCreditFields(stale.AppendCreditFields(nil)[:0])
			}

			base := cmd.AppendData(nil)
			names, offsets := fieldOffsets(fr.Code, base)
			var wantPSM, wantCIDs, wantConts, wantCredit []int
			for i, name := range names {
				switch name {
				case "PSM":
					wantPSM = append(wantPSM, offsets[i])
				case "SCID", "DCID", "ICID", "CIDP", "SCID_LIST", "DCID_LIST":
					wantCIDs = append(wantCIDs, offsets[i])
				case "CONT_ID":
					wantConts = append(wantConts, offsets[i])
				case "SPSM", "MTU", "MPS", "CREDIT":
					wantCredit = append(wantCredit, offsets[i])
				}
			}
			if (core.PSM != nil) != (len(wantPSM) == 1) || len(core.CIDs) != len(wantCIDs) ||
				len(core.ControllerIDs) != len(wantConts) {
				t.Fatalf("%v: core fields PSM=%v CIDs=%d ControllerIDs=%d, classification lists PSM at %v, CIDs at %v, CONT_ID at %v",
					fr.Code, core.PSM != nil, len(core.CIDs), len(core.ControllerIDs), wantPSM, wantCIDs, wantConts)
			}
			if isCredit != (len(wantCredit) > 0) || len(credit) != len(wantCredit) {
				t.Fatalf("%v: CreditFielder=%v with %d credit fields, classification lists them at %v",
					fr.Code, isCredit, len(credit), wantCredit)
			}

			// check writes a sentinel through one field, finds it at off in
			// the re-encoded data with nothing else changed, then restores
			// the field.
			check := func(kind string, off, width int, set func(v uint16)) {
				if off+width > len(base) {
					t.Fatalf("%v: %s field at offset %d lies past the %d data bytes", fr.Code, kind, off, len(base))
				}
				want := append([]byte(nil), base...)
				var cur, sentinel uint16
				if width == 1 {
					cur = uint16(base[off])
					sentinel = cur ^ 0xFF
					want[off] = byte(sentinel)
				} else {
					cur = getU16(base, off)
					sentinel = ^cur
					binary.LittleEndian.PutUint16(want[off:], sentinel)
				}
				set(sentinel)
				got := cmd.AppendData(nil)
				set(cur)
				if !bytes.Equal(got, want) {
					t.Fatalf("%v: sentinel %#x written through %s did not land at offset %d alone\n got %x\nwant %x",
						fr.Code, sentinel, kind, off, got, want)
				}
			}
			if p := core.PSM; p != nil {
				check("PSM", wantPSM[0], 2, func(v uint16) { *p = PSM(v) })
			}
			for i, p := range core.CIDs {
				check("CIDs", wantCIDs[i], 2, func(v uint16) { *p = CID(v) })
			}
			for i, p := range core.ControllerIDs {
				check("ControllerIDs", wantConts[i], 1, func(v uint16) { *p = uint8(v) })
			}
			for i, p := range credit {
				check("credit fields", wantCredit[i], 2, func(v uint16) { *p = v })
			}
			if got := cmd.AppendData(nil); !bytes.Equal(got, base) {
				t.Fatalf("%v: fields not restored\n got %x\nwant %x", fr.Code, got, base)
			}
			if !bytes.Equal(stale.AppendData(nil), staleData) || !bytes.Equal(create.AppendData(nil), createData) {
				t.Fatalf("%v: a write through the refilled scratch reached the commands that filled it before", fr.Code)
			}
		}
	})
}
