// Package corpus makes findings durable, reproducible artefacts: the
// production piece the paper's evidence chain implies but its tooling
// never ships. §IV-C's BFuzz baseline literally replays "previously
// vulnerable" packet shapes, and §V concedes that root-cause analysis
// is the open limitation — both presuppose a finding that outlives the
// run that produced it. Here one does.
//
// A finding's repro trace is the ordered client operation sequence —
// pages, link drops, wire packets — recorded by a host.TraceRecorder
// from the rig's birth (or the last device reset) through detection.
// Because the simulated targets are deterministic functions of that
// sequence, replaying it against a fresh testbed rig re-drives the
// target into the same crash.
//
// The package has three parts:
//
//   - Trace and Entry bind a recorded operation sequence to the finding
//     it reproduces: the seed, target spec name, L2CAP state and port
//     under test, and the shared core.Signature the fleet de-duplicates
//     by. An entry of a custom target also embeds the target's spec, so
//     every entry replays on its own.
//   - Store persists entries as one JSON file per signature in a
//     directory, so farms become resumable across processes: a second
//     run over the same store recognises yesterday's findings as Known
//     instead of re-reporting them. A stored trace loads into two
//     allocations, its ops and one buffer their send data share
//     (Ops.UnmarshalJSON), however many ops it holds.
//   - Replay re-drives a stored trace against a fresh rig and verifies
//     the crash still fires, classifying the outcome exactly as the
//     original detection did (core.ProbeLiveness) and feeding the fresh
//     device dump to triage for a root-cause report. The rig is a
//     replay rig, without a sniffer, so a replay allocates next to
//     nothing per op. Minimize delta-debugs the trace down to a minimal
//     operation sequence that still reproduces the same signature — the
//     minimal witness the paper's manual analysis had to reconstruct by
//     hand. Its probes replay each candidate in place, so only the
//     winning candidate of a round is ever copied.
//
// fleet.Config.Corpus wires a Store into a farm (new findings persist
// as they stream), cmd/l2repro replays, minimizes and triages stored
// entries by signature, and the public API re-exports the types as
// l2fuzz.Corpus*.
package corpus
