// Package bfuzz models the IoTcube/BFuzz Bluetooth fuzzer as the paper
// characterises it (§IV-C, §VI): it replays packets "previously
// determined to be vulnerable" and mutates almost every field — including
// the dependent length fields core field mutating deliberately protects —
// "however, because it mutates almost every field, it is easily rejected
// by the target device". The result is the paper's measured shape: a very
// high packet-rejection ratio (91.60%) with very few *valid* malformed
// packets (1.50%).
package bfuzz

import (
	"fmt"
	"math/rand"
	"time"

	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/fuzzers"
)

// ThinkTime reproduces BFuzz's measured pace of 454.54 packets/s.
const ThinkTime = 900 * time.Microsecond

// dataOnlyEvery controls how often the scramble leaves the dependent
// fields intact, producing a decodable (valid malformed) packet instead
// of an invalid one. One in 50 lands the MP ratio near the paper's 1.50%.
const dataOnlyEvery = 50

// Fuzzer is a BFuzz-like everything-mutator.
type Fuzzer struct {
	cl      *host.Client
	rng     *rand.Rand
	scratch []byte // burst packets are encoded and scrambled here
}

var _ fuzzers.Fuzzer = (*Fuzzer)(nil)

// New builds the fuzzer over a tester client.
func New(cl *host.Client, seed int64) *Fuzzer {
	return &Fuzzer{cl: cl, rng: rand.New(rand.NewSource(seed))}
}

// seeds are the previously-vulnerable packet shapes BFuzz replays: the
// BlueBorne-style connect/configure conversation.
func seeds(scid, dcid l2cap.CID) []l2cap.Command {
	return []l2cap.Command{
		// The connect seed targets RFCOMM: the original BlueBorne-era
		// corpus fuzzed classic profiles, and a pairing-gated port keeps
		// accidental channel creation out of the mutation burst.
		&l2cap.ConnectionReq{PSM: l2cap.PSMRFCOMM, SCID: scid},
		&l2cap.ConfigurationReq{DCID: dcid, Options: []l2cap.ConfigOption{l2cap.MTUOption(672)}},
		&l2cap.ConfigurationRsp{SCID: dcid, Result: l2cap.ConfigPending},
		&l2cap.EchoReq{Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}},
	}
}

// Run alternates a short valid handshake (so some state is reachable)
// with bursts of everything-mutated seed packets.
func (f *Fuzzer) Run(target radio.BDAddr, maxPackets int) (res fuzzers.Result, err error) {
	if err := f.cl.Connect(target); err != nil {
		return fuzzers.Result{}, fmt.Errorf("bfuzz: %w", err)
	}
	start := f.cl.Clock().Now()
	defer func() { res.Elapsed = f.cl.Clock().Now() - start }()
	sent := 0
	for sent < maxPackets {
		// Valid prelude: open and fully configure one channel.
		local, remote, err := f.cl.OpenChannel(target, l2cap.PSMSDP)
		if err != nil {
			// The target may refuse (channel cap); drop the link and retry.
			f.cl.Disconnect(target)
			if err := f.cl.Connect(target); err != nil {
				break
			}
			continue
		}
		sent += 4 // conversation cost: connect plus configuration round-trips
		f.cl.Clock().Advance(4 * ThinkTime)

		// Mutation burst over the seed corpus. scramble mutates the
		// encoded packet, not the command, so the seed commands serve
		// the whole burst.
		seedSet := seeds(local, remote)
		for burst := 0; burst < 2048 && sent < maxPackets; burst++ {
			cmd := seedSet[f.rng.Intn(len(seedSet))]
			pkt := l2cap.SignalPacket(f.scratch, f.cl.NextID(), cmd, nil)
			f.scratch = pkt.Payload
			f.scramble(pkt.Payload, sent)
			if err := f.cl.Send(target, pkt); err != nil {
				res.PacketsSent = sent
				return res, nil
			}
			f.cl.Clock().Advance(ThinkTime)
			sent++
			f.cl.Drain()
		}

		// Fresh link per cycle, like re-running the tool.
		f.cl.Disconnect(target)
		if err := f.cl.Connect(target); err != nil {
			break
		}
		res.Cycles++
	}
	res.PacketsSent = sent
	return res, nil
}

// scramble mutates almost every field of a signaling payload in place.
// Usually the dependent length fields are corrupted too — producing an
// *invalid* packet the target rejects with "command not understood" —
// and occasionally only the data bytes, producing a decodable malformed
// packet.
func (f *Fuzzer) scramble(payload []byte, ordinal int) {
	if len(payload) < l2cap.SignalHeaderSize {
		return
	}
	if ordinal%dataOnlyEvery == 0 {
		// Data-only mutation: lengths stay coherent.
		for i := l2cap.SignalHeaderSize; i < len(payload); i++ {
			if f.rng.Intn(2) == 0 {
				payload[i] = byte(f.rng.Intn(256))
			}
		}
	} else {
		// Everything-mutation: scramble data and the declared data
		// length (and sometimes the code), breaking decodability.
		for i := l2cap.SignalHeaderSize; i < len(payload); i++ {
			if f.rng.Intn(2) == 0 {
				payload[i] = byte(f.rng.Intn(256))
			}
		}
		payload[2] = byte(f.rng.Intn(256)) // data length low byte
		payload[3] = byte(f.rng.Intn(4))   // data length high byte
		if f.rng.Intn(4) == 0 {
			payload[0] = byte(f.rng.Intn(256)) // command code
		}
	}
}
