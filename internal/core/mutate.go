package core

import (
	"fmt"
	"math/rand"

	"l2fuzz/internal/bt/l2cap"
)

// Mutator implements core field mutating (paper §III-D, Algorithm 1).
// It is deterministic for a given source.
type Mutator struct {
	rng *rand.Rand
	// maxGarbage bounds the appended tail so the packet stays under the
	// signaling MTU ("Signaling MTU exceeded" is avoided by construction).
	maxGarbage int
	// creditRNG, when seeded, drives the credit-negotiation field
	// mutation (SPSM/MTU/MPS/CREDIT on the credit-based command family).
	// It is a separate stream so enabling it leaves the core-field and
	// garbage draws — and therefore every historical packet schedule —
	// untouched.
	creditRNG *rand.Rand

	// Reused scratch state: one packet is in flight per mutator at a
	// time, so Mutate can hand out borrows of these.
	defaults [256]l2cap.Command // indexed by command code
	tail     []byte
	payload  []byte
	core     l2cap.CoreFields // AppendCoreFields scratch
	credit   []*uint16        // AppendCreditFields scratch
}

// NewMutator builds a mutator over the given RNG.
func NewMutator(rng *rand.Rand, maxGarbage int) *Mutator {
	if maxGarbage < 0 {
		maxGarbage = 0
	}
	return &Mutator{rng: rng, maxGarbage: maxGarbage}
}

// SeedCreditStream enables credit-negotiation field mutation, drawing
// values from a dedicated RNG stream seeded here. Without it the credit
// commands keep their specification defaults (the pre-extension
// behaviour).
func (mu *Mutator) SeedCreditStream(seed int64) {
	mu.creditRNG = rand.New(rand.NewSource(seed))
}

// Mutation describes what a generated packet had mutated: the ground
// truth the metrics layer uses to classify malformed traffic.
type Mutation struct {
	// Code is the command the packet carries.
	Code l2cap.CommandCode
	// PSMMutated reports an abnormal-range PSM substitution.
	PSMMutated bool
	// PSM is the substituted value when PSMMutated.
	PSM l2cap.PSM
	// CIDsMutated counts payload channel IDs overwritten.
	CIDsMutated int
	// ControllerIDMutated reports a CONT_ID substitution.
	ControllerIDMutated bool
	// GarbageLen is the appended tail length.
	GarbageLen int
	// CreditFieldsMutated counts credit-negotiation fields (SPSM, MTU,
	// MPS, CREDIT) overwritten on the credit-based command family. The
	// field is omitted from serialized records when zero so artefacts
	// from runs without credit mutation keep their historical shape.
	CreditFieldsMutated int `json:",omitempty"`
}

// IsMalformed reports whether the packet differs from a well-formed
// default: any core-field substitution or a non-empty tail.
func (m Mutation) IsMalformed() bool {
	return m.PSMMutated || m.CIDsMutated > 0 || m.ControllerIDMutated || m.GarbageLen > 0
}

// String summarises the mutation for logs.
func (m Mutation) String() string {
	s := fmt.Sprintf("%v psm=%v cids=%d cont=%v garbage=%dB",
		m.Code, m.PSMMutated, m.CIDsMutated, m.ControllerIDMutated, m.GarbageLen)
	if m.CreditFieldsMutated > 0 {
		s += fmt.Sprintf(" credit=%d", m.CreditFieldsMutated)
	}
	return s
}

// AbnormalPSM samples the malicious PSM domain of Table IV: half the
// draws come from the seven odd-MSB bands, half are arbitrary even
// values.
func (mu *Mutator) AbnormalPSM() l2cap.PSM {
	if mu.rng.Intn(2) == 0 {
		bands := l2cap.AbnormalPSMRanges()
		b := bands[mu.rng.Intn(len(bands))]
		return b.Lo + l2cap.PSM(mu.rng.Intn(int(b.Hi-b.Lo)+1))
	}
	return l2cap.PSM(mu.rng.Intn(0x8000) * 2) // any even value
}

// NormalCIDP samples the normal dynamic CID range [0x0040, 0xFFFF],
// deliberately ignoring what the target actually allocated.
func (mu *Mutator) NormalCIDP() l2cap.CID {
	lo, hi := l2cap.CIDPRange()
	return lo + l2cap.CID(mu.rng.Intn(int(hi-lo)+1))
}

// Garbage produces the tail: length uniform in [0, maxGarbage], bytes
// uniform. The returned slice is a borrow of the mutator's scratch
// buffer, valid until the next Garbage or Mutate call; the RNG draw
// sequence (one length draw, then one draw per byte) is identical to the
// historical allocating version, so packet schedules are unchanged.
func (mu *Mutator) Garbage() []byte {
	n := mu.rng.Intn(mu.maxGarbage + 1)
	if n == 0 {
		return nil
	}
	if cap(mu.tail) < n {
		mu.tail = make([]byte, n)
	}
	tail := mu.tail[:n]
	for i := range tail {
		tail[i] = byte(mu.rng.Intn(256))
	}
	return tail
}

// defaultCommand returns the mutator's reusable command instance for
// code. Every field the mutation loop can touch is overwritten on every
// Mutate call (core fields always; credit fields whenever the credit
// stream is enabled), so reusing the instance leaves packet contents
// identical to building a fresh default each time.
func (mu *Mutator) defaultCommand(code l2cap.CommandCode) (l2cap.Command, error) {
	if cmd := mu.defaults[code]; cmd != nil {
		return cmd, nil
	}
	cmd, err := l2cap.DefaultCommand(code)
	if err != nil {
		return nil, err
	}
	mu.defaults[code] = cmd
	return cmd, nil
}

// Mutate implements Algorithm 1 for one command code: build the default
// command (D and MA fields at their defaults), overwrite the mutable-core
// fields, and append garbage. The identifier is supplied by the caller so
// the packet stream stays protocol-plausible.
//
// The returned packet's payload is a borrow of the mutator's scratch
// buffer, valid until the next Mutate call: the fuzzing loop sends (and
// the client marshals) each packet before generating the next. Callers
// that retain a packet must copy its payload.
func (mu *Mutator) Mutate(id uint8, code l2cap.CommandCode) (l2cap.Packet, Mutation, error) {
	cmd, err := mu.defaultCommand(code)
	if err != nil {
		return l2cap.Packet{}, Mutation{}, fmt.Errorf("mutate: %w", err)
	}
	info := Mutation{Code: code}

	mu.core = cmd.AppendCoreFields(mu.core)
	core := mu.core
	if core.PSM != nil {
		*core.PSM = mu.AbnormalPSM()
		info.PSMMutated = true
		info.PSM = *core.PSM
	}
	for _, cid := range core.CIDs {
		*cid = mu.NormalCIDP()
		info.CIDsMutated++
	}
	for _, cont := range core.ControllerIDs {
		// Controllers 0-3; non-zero values name AMP controllers the
		// target does not have.
		*cont = uint8(mu.rng.Intn(4))
		info.ControllerIDMutated = true
	}

	if mu.creditRNG != nil {
		if cc, ok := cmd.(l2cap.CreditFielder); ok {
			mu.credit = cc.AppendCreditFields(mu.credit[:0])
			for _, field := range mu.credit {
				*field = mu.creditValue()
				info.CreditFieldsMutated++
			}
		}
	}

	tail := mu.Garbage()
	info.GarbageLen = len(tail)
	payload, declared := l2cap.AppendSignalFrame(mu.payload[:0], id, cmd, tail)
	mu.payload = payload
	return l2cap.Packet{
		Length:    uint16(min(declared, l2cap.MaxPayload)),
		ChannelID: l2cap.CIDSignaling,
		Payload:   payload,
	}, info, nil
}

// creditValue samples one credit-negotiation field: the boundary values
// 0 and 0xFFFF — zero-credit stalls and maximal MTU/MPS claims are the
// historically productive corners — each an eighth of the time,
// otherwise uniform over the full range.
func (mu *Mutator) creditValue() uint16 {
	switch mu.creditRNG.Intn(8) {
	case 0:
		return 0
	case 1:
		return 0xFFFF
	default:
		return uint16(mu.creditRNG.Intn(0x10000))
	}
}
