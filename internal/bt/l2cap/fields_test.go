package l2cap

import "testing"

func TestEveryCommandHasFieldClassification(t *testing.T) {
	for _, code := range AllCommandCodes() {
		if commandFields[code] == nil {
			t.Errorf("commandFields[%v] = nil; every command needs a classification", code)
		}
	}
	if commandFields[0x7F] != nil {
		t.Error("commandFields[unknown] should be nil")
	}
}

func TestFieldClassificationMatchesPaperFigure6(t *testing.T) {
	// MC = {PSM, SCID, DCID, ICID, CONT_ID}; everything else in command
	// data is MA. Spot-check the commands named in the paper.
	tests := []struct {
		code    CommandCode
		mcNames []string
	}{
		{CodeConnectionReq, []string{"PSM", "SCID"}},
		{CodeConnectionRsp, []string{"DCID", "SCID"}},
		{CodeConfigurationReq, []string{"DCID"}},
		{CodeConfigurationRsp, []string{"SCID"}},
		{CodeCreateChannelReq, []string{"PSM", "SCID", "CONT_ID"}},
		{CodeMoveChannelReq, []string{"ICID", "CONT_ID"}},
		{CodeEchoReq, nil},
		{CodeInformationReq, nil},
		{CodeConnParamUpdateReq, nil},
	}
	for _, tt := range tests {
		var got []string
		for _, f := range commandFields[tt.code] {
			if f.Class == FieldMutableCore {
				got = append(got, f.Name)
			}
		}
		if len(got) != len(tt.mcNames) {
			t.Errorf("%v: MC fields = %v, want %v", tt.code, got, tt.mcNames)
			continue
		}
		for i := range got {
			if got[i] != tt.mcNames[i] {
				t.Errorf("%v: MC field[%d] = %q, want %q", tt.code, i, got[i], tt.mcNames[i])
			}
		}
	}
}

func TestCoreFieldsAgreeWithClassification(t *testing.T) {
	// For every command, the core fields the concrete struct appends
	// must be non-empty exactly when the classification table lists an MC
	// field.
	for _, cmd := range sampleCommands() {
		code := cmd.Code()
		wantCore := false
		for _, f := range commandFields[code] {
			wantCore = wantCore || f.Class == FieldMutableCore
		}
		cf := cmd.AppendCoreFields(CoreFields{})
		gotCore := cf.PSM != nil || len(cf.CIDs) > 0 || len(cf.ControllerIDs) > 0
		if wantCore != gotCore {
			t.Errorf("%v: AppendCoreFields(CoreFields{}) non-empty = %v but the classification lists MC fields = %v",
				code, gotCore, wantCore)
		}
	}
}

func TestCoreFieldsMutateInPlace(t *testing.T) {
	req := &ConnectionReq{PSM: PSMSDP, SCID: 0x0040}
	core := req.AppendCoreFields(CoreFields{})
	*core.PSM = 0x0100
	*core.CIDs[0] = 0x1234
	if req.PSM != 0x0100 || req.SCID != 0x1234 {
		t.Fatalf("mutation through AppendCoreFields did not reach the struct: %+v", req)
	}
	data := req.AppendData(nil)
	if getU16(data, 0) != 0x0100 || getU16(data, 2) != 0x1234 {
		t.Fatalf("marshaled data does not reflect mutation: %x", data)
	}
}

func TestFieldClassString(t *testing.T) {
	tests := []struct {
		class FieldClass
		want  string
	}{
		{FieldFixed, "F"},
		{FieldDependent, "D"},
		{FieldMutableCore, "MC"},
		{FieldMutableApp, "MA"},
	}
	for _, tt := range tests {
		if got := tt.class.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.class, got, tt.want)
		}
	}
}

func TestAbnormalPSMRangesMatchTableIV(t *testing.T) {
	ranges := AbnormalPSMRanges()
	if len(ranges) != 7 {
		t.Fatalf("len(ranges) = %d, want 7", len(ranges))
	}
	// Band starts per Table IV.
	wantLo := []PSM{0x0100, 0x0300, 0x0500, 0x0700, 0x0900, 0x0B00, 0x0D00}
	for i, r := range ranges {
		if r.Lo != wantLo[i] || r.Hi != wantLo[i]+0xFF {
			t.Errorf("range[%d] = [%04X, %04X], want [%04X, %04X]",
				i, uint16(r.Lo), uint16(r.Hi), uint16(wantLo[i]), uint16(wantLo[i]+0xFF))
		}
	}
}

func TestIsAbnormalPSM(t *testing.T) {
	tests := []struct {
		psm  PSM
		want bool
	}{
		{PSMSDP, false},    // 0x0001: valid SDP port
		{PSMRFCOMM, false}, // 0x0003
		{0x0002, true},     // even
		{0x0100, true},     // band start (even too)
		{0x0101, true},     // inside 0x0100 band, odd
		{0x01FF, true},     // band end
		{0x0201, false},    // odd, outside bands, well-formed
		{0x0B7F, true},     // inside 0x0B00 band
		{0x1001, false},    // dynamic PSM start
		{0x0D01, true},     // inside 0x0D00 band
	}
	for _, tt := range tests {
		if got := IsAbnormalPSM(tt.psm); got != tt.want {
			t.Errorf("IsAbnormalPSM(%04X) = %v, want %v", uint16(tt.psm), got, tt.want)
		}
	}
}

func TestCIDRanges(t *testing.T) {
	if CIDSignaling.IsDynamic() {
		t.Error("signaling CID must not be dynamic")
	}
	if !CID(0x0040).IsDynamic() {
		t.Error("0x0040 must be dynamic")
	}
	lo, hi := CIDPRange()
	if lo != 0x0040 || hi != 0xFFFF {
		t.Errorf("CIDPRange() = [%v, %v], want [0x0040, 0xFFFF]", lo, hi)
	}
}
