package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"l2fuzz/internal/bt/l2cap"
)

func testMutator(seed int64) *Mutator {
	return NewMutator(rand.New(rand.NewSource(seed)), DefaultMaxGarbage)
}

func TestAbnormalPSMAlwaysAbnormal(t *testing.T) {
	mu := testMutator(1)
	for i := 0; i < 5000; i++ {
		p := mu.AbnormalPSM()
		if !l2cap.IsAbnormalPSM(p) {
			t.Fatalf("AbnormalPSM() = %04X, which is not abnormal per Table IV", uint16(p))
		}
	}
}

func TestNormalCIDPInRange(t *testing.T) {
	mu := testMutator(2)
	lo, hi := l2cap.CIDPRange()
	for i := 0; i < 5000; i++ {
		c := mu.NormalCIDP()
		if c < lo || c > hi {
			t.Fatalf("NormalCIDP() = %v outside [%v, %v]", c, lo, hi)
		}
	}
}

func TestGarbageBounded(t *testing.T) {
	mu := NewMutator(rand.New(rand.NewSource(3)), 16)
	sawNonEmpty := false
	for i := 0; i < 1000; i++ {
		g := mu.Garbage()
		if len(g) > 16 {
			t.Fatalf("garbage %d bytes exceeds bound", len(g))
		}
		if len(g) > 0 {
			sawNonEmpty = true
		}
	}
	if !sawNonEmpty {
		t.Fatal("garbage never non-empty")
	}
}

func TestMutateKeepsDependentAndFixedFields(t *testing.T) {
	mu := testMutator(4)
	for _, code := range l2cap.AllCommandCodes() {
		pkt, _, err := mu.Mutate(7, code)
		if err != nil {
			t.Fatalf("Mutate(%v) error = %v", code, err)
		}
		// F: header channel ID stays the signaling channel.
		if pkt.ChannelID != l2cap.CIDSignaling {
			t.Errorf("%v: header CID = %v, want signaling (fixed field)", code, pkt.ChannelID)
		}
		// D: declared lengths describe the command without the tail, so
		// the frame still parses.
		frames, err := l2cap.ParseSignals(pkt.Payload)
		if err != nil {
			t.Fatalf("%v: mutated packet does not parse: %v", code, err)
		}
		if frames[0].Code != code {
			t.Errorf("%v: code field changed to %v", code, frames[0].Code)
		}
		if frames[0].Identifier != 7 {
			t.Errorf("%v: identifier changed", code)
		}
		if _, err := l2cap.DecodeCommand(frames[0]); err != nil {
			t.Errorf("%v: mutated command undecodable: %v", code, err)
		}
	}
}

func TestMutatePSMIsAbnormalAndCIDsNormal(t *testing.T) {
	mu := testMutator(5)
	for i := 0; i < 500; i++ {
		pkt, info, err := mu.Mutate(1, l2cap.CodeConnectionReq)
		if err != nil {
			t.Fatal(err)
		}
		if !info.PSMMutated || info.CIDsMutated != 1 {
			t.Fatalf("mutation info = %+v, want PSM + 1 CID", info)
		}
		frames, _ := l2cap.ParseSignals(pkt.Payload)
		cmd, _ := l2cap.DecodeCommand(frames[0])
		req := cmd.(*l2cap.ConnectionReq)
		if !l2cap.IsAbnormalPSM(req.PSM) {
			t.Fatalf("PSM %04X not abnormal", uint16(req.PSM))
		}
		if !req.SCID.IsDynamic() {
			t.Fatalf("SCID %v outside normal dynamic range", req.SCID)
		}
	}
}

func TestMutationMalformedness(t *testing.T) {
	// Commands with MC fields are always malformed; commands without MC
	// fields are malformed only via the garbage tail.
	mu := NewMutator(rand.New(rand.NewSource(6)), 0) // no garbage
	for _, tt := range []struct {
		code l2cap.CommandCode
		want bool
	}{
		{l2cap.CodeConnectionReq, true},
		{l2cap.CodeConfigurationReq, true},
		{l2cap.CodeEchoReq, false},
		{l2cap.CodeInformationReq, false},
		{l2cap.CodeConnParamUpdateRsp, false},
	} {
		_, info, err := mu.Mutate(1, tt.code)
		if err != nil {
			t.Fatal(err)
		}
		if info.IsMalformed() != tt.want {
			t.Errorf("%v: IsMalformed = %v, want %v", tt.code, info.IsMalformed(), tt.want)
		}
	}
}

func TestMutateDeterministicForSeed(t *testing.T) {
	a, b := testMutator(42), testMutator(42)
	for i := 0; i < 200; i++ {
		pa, _, _ := a.Mutate(uint8(i%250+1), l2cap.CodeConnectionReq)
		pb, _, _ := b.Mutate(uint8(i%250+1), l2cap.CodeConnectionReq)
		if string(pa.AppendTo(nil)) != string(pb.AppendTo(nil)) {
			t.Fatal("same seed produced different packets")
		}
	}
}

func TestMutateCreditFieldsUntouchedWithoutStream(t *testing.T) {
	// A mutator without a seeded credit stream leaves the credit
	// commands' negotiation fields at their specification defaults — the
	// pre-extension behaviour.
	mu := testMutator(8)
	def, _ := l2cap.DefaultCommand(l2cap.CodeLECreditConnReq)
	want := def.(*l2cap.LECreditConnReq)
	for i := 0; i < 100; i++ {
		pkt, info, err := mu.Mutate(1, l2cap.CodeLECreditConnReq)
		if err != nil {
			t.Fatal(err)
		}
		if info.CreditFieldsMutated != 0 {
			t.Fatalf("CreditFieldsMutated = %d without a credit stream", info.CreditFieldsMutated)
		}
		frames, _ := l2cap.ParseSignals(pkt.Payload)
		cmd, _ := l2cap.DecodeCommand(frames[0])
		req := cmd.(*l2cap.LECreditConnReq)
		if req.SPSM != want.SPSM || req.MTU != want.MTU || req.MPS != want.MPS || req.InitialCredits != want.InitialCredits {
			t.Fatalf("credit fields mutated without a stream: %+v", req)
		}
	}
}

func TestMutateCreditFieldsWithStream(t *testing.T) {
	mu := testMutator(9)
	mu.SeedCreditStream(9)
	counts := map[l2cap.CommandCode]int{
		l2cap.CodeLECreditConnReq:      4,
		l2cap.CodeLECreditConnRsp:      3,
		l2cap.CodeFlowControlCredit:    1,
		l2cap.CodeCreditBasedConnReq:   4,
		l2cap.CodeCreditBasedConnRsp:   3,
		l2cap.CodeCreditBasedReconfReq: 2,
		// Non-credit commands and pure-result responses are untouched.
		l2cap.CodeConnectionReq:        0,
		l2cap.CodeCreditBasedReconfRsp: 0,
		l2cap.CodeConnParamUpdateReq:   0,
	}
	for code, want := range counts {
		_, info, err := mu.Mutate(1, code)
		if err != nil {
			t.Fatal(err)
		}
		if info.CreditFieldsMutated != want {
			t.Errorf("%v: CreditFieldsMutated = %d, want %d", code, info.CreditFieldsMutated, want)
		}
	}

	// The draws land in the marshalled payload: over many packets the
	// SPSM must leave its default at least once.
	diverged := false
	for i := 0; i < 50 && !diverged; i++ {
		pkt, _, err := mu.Mutate(1, l2cap.CodeLECreditConnReq)
		if err != nil {
			t.Fatal(err)
		}
		frames, _ := l2cap.ParseSignals(pkt.Payload)
		cmd, _ := l2cap.DecodeCommand(frames[0])
		def, _ := l2cap.DefaultCommand(l2cap.CodeLECreditConnReq)
		if cmd.(*l2cap.LECreditConnReq).SPSM != def.(*l2cap.LECreditConnReq).SPSM {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("credit stream never changed the wire payload")
	}
}

func TestMutateCreditStreamDoesNotPerturbCoreDraws(t *testing.T) {
	// The whole point of the side stream: the same main seed yields the
	// same core-field and garbage draws whether or not credit mutation
	// is on. Run the same schedule — credit commands included — through
	// a plain and a streamed mutator; every non-credit packet must stay
	// byte-identical, and the credit packets must agree on everything
	// the main stream decides (endpoint CIDs and the garbage tail).
	plain, streamed := testMutator(42), testMutator(42)
	streamed.SeedCreditStream(7)
	codes := []l2cap.CommandCode{
		l2cap.CodeConnectionReq, l2cap.CodeCreditBasedConnReq,
		l2cap.CodeConfigurationReq, l2cap.CodeLECreditConnReq,
	}
	for i := 0; i < 200; i++ {
		id := uint8(i%250 + 1)
		code := codes[i%len(codes)]
		pa, ia, _ := plain.Mutate(id, code)
		pb, ib, _ := streamed.Mutate(id, code)
		if ib.CreditFieldsMutated > 0 {
			// Credit packets differ only in the side-stream values: the
			// main-stream decisions must agree.
			if ia.CIDsMutated != ib.CIDsMutated || ia.GarbageLen != ib.GarbageLen {
				t.Fatalf("packet %d (%v): core draws diverged: %+v vs %+v", i, code, ia, ib)
			}
			continue
		}
		if string(pa.AppendTo(nil)) != string(pb.AppendTo(nil)) {
			t.Fatalf("packet %d (%v): credit stream perturbed the core schedule", i, code)
		}
	}
}

func TestMutateCreditStreamDeterministic(t *testing.T) {
	a, b := testMutator(11), testMutator(11)
	a.SeedCreditStream(11)
	b.SeedCreditStream(11)
	for i := 0; i < 200; i++ {
		id := uint8(i%250 + 1)
		pa, ia, _ := a.Mutate(id, l2cap.CodeLECreditConnReq)
		pb, ib, _ := b.Mutate(id, l2cap.CodeLECreditConnReq)
		if string(pa.AppendTo(nil)) != string(pb.AppendTo(nil)) || ia != ib {
			t.Fatal("same credit seed produced different packets")
		}
	}
}

func TestMutateUnknownCode(t *testing.T) {
	if _, _, err := testMutator(1).Mutate(1, 0x7F); err == nil {
		t.Fatal("Mutate(unknown code) succeeded")
	}
}

// Property: mutated packets never exceed the signaling MTU (garbage is
// bounded), so "Signaling MTU exceeded" rejects are avoided by design.
func TestQuickMutatedPacketsUnderSignalingMTU(t *testing.T) {
	mu := testMutator(7)
	codes := l2cap.AllCommandCodes()
	f := func(pick uint8, id uint8) bool {
		code := codes[int(pick)%len(codes)]
		if id == 0 {
			id = 1
		}
		pkt, _, err := mu.Mutate(id, code)
		if err != nil {
			return false
		}
		return len(pkt.Payload) <= l2cap.DefaultSignalingMTU
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
