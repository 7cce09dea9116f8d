// Package fuzzers defines the common contract of the baseline Bluetooth
// fuzzers the paper compares against (§IV, §VI): Defensics, BFuzz and
// BSS. The L2Fuzz core lives in internal/core. The fleet's engine table
// runs all four (and the harness runs its cells through those engines),
// naming each by its fleet.Kind.
//
// Baselines are modelled from the paper's published behavioural
// descriptions, not from their source code:
//
//   - Defensics: template-driven, almost entirely well-formed traffic,
//     one test packet per state, low anomaly rate, 3.37 packets/s;
//   - BFuzz: seeds from previously-vulnerable packets, mutates almost
//     every field including dependent ones, so most test packets are
//     invalid rather than valid-malformed and get rejected, 454.54
//     packets/s;
//   - BSS: mutates exactly one (application) field of otherwise normal
//     packets — echo floods — producing no valid-malformed packets at
//     all, 1.95 packets/s.
package fuzzers

import (
	"time"

	"l2fuzz/internal/bt/radio"
)

// Result is the outcome of a baseline run.
type Result struct {
	// PacketsSent counts transmitted L2CAP packets.
	PacketsSent int
	// Elapsed is the simulated run duration.
	Elapsed time.Duration
	// Cycles counts completed test cycles.
	Cycles int
}

// Fuzzer is a runnable black-box Bluetooth fuzzer.
type Fuzzer interface {
	// Run fuzzes the target until roughly maxPackets packets have been
	// sent (a cycle may finish past the budget) or the target stops
	// answering.
	Run(target radio.BDAddr, maxPackets int) (Result, error)
}
