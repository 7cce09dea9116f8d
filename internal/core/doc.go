// Package core implements L2Fuzz itself: the stateful Bluetooth L2CAP
// fuzzer of the paper, with its four phases (Figure 5):
//
//  1. Target scanning — inquiry for the target's MAC address, name,
//     class-of-device and OUI; SDP enumeration of service ports; probing
//     for potentially exploitable (pairing-free) ports with the SDP port
//     as the guaranteed fallback.
//  2. State guiding — the 19 L2CAP states are clustered into seven jobs
//     (Table I) with valid commands mapped per job (Table III); transition
//     recipes drive the target into each master-reachable state, and only
//     state-valid commands are fuzzed there.
//  3. Core field mutating — Algorithm 1: fixed and dependent fields kept,
//     mutable-application fields left at defaults, PSM mutated into its
//     abnormal ranges and payload channel IDs across the normal dynamic
//     range ignoring allocation (Table IV), plus an MTU-bounded garbage
//     tail.
//  4. Vulnerability detecting — connection-error classification
//     (Connection Failed / Aborted / Reset / Refused / Timeout), the
//     L2CAP echo ping test, and logging.
//
// The fuzzer is strictly black-box: it sees only what comes back over
// the air. Ground-truth crash dumps live in the device simulation; the
// fuzzer never reads them. The layers above it do: the fleet and the
// campaign runner attach them to findings, corpus replay and triage
// classify root causes from them, and the harness reports their kind in
// Table VI.
package core
