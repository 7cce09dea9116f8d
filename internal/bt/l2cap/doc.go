// Package l2cap implements the Bluetooth 5.2 Logical Link Control and
// Adaptation Protocol (L2CAP) packet formats used over BR/EDR ACL-U
// logical links.
//
// The package provides:
//
//   - the basic L2CAP frame (length + channel ID header, Figure 3 of the
//     L2Fuzz paper; Vol 3 Part A §3 of the Bluetooth Core Specification),
//   - all 26 signaling commands defined by Bluetooth 5.2 with round-trip
//     binary encoding (Vol 3 Part A §4),
//   - configuration options (MTU, flush timeout, QoS, retransmission and
//     flow control, FCS, extended flow specification, extended window size),
//   - the field classification used by L2Fuzz core-field mutating: every
//     command exposes which of its fields are fixed (F), dependent (D),
//     mutable core (MC: PSM and channel IDs carried in the payload) and
//     mutable application (MA) fields.
//
// All multi-byte values are little-endian, as mandated by the Bluetooth
// Core Specification.
//
// Each direction has one codec form. Encoders write into a caller's
// buffer (Packet.AppendTo, Command.AppendData, AppendSignalFrame and
// SignalPacket; pass nil for a fresh one).
// Decoders borrow: ParsePacket, AppendSignals, UnmarshalData and
// AppendParsedOptions return values whose byte fields alias the input,
// so a caller that keeps them past the input's lifetime copies them
// with append([]byte(nil), b...).
//
// Encoding is strict: AppendData never produces command data that a
// conformant stack would reject as syntactically invalid. Decoding is
// deliberately tolerant of *trailing* bytes beyond the declared data
// length, because L2Fuzz appends garbage tails to otherwise well-formed
// commands and the simulated vendor stacks must be able to observe that
// tail (some of the reproduced vulnerabilities are triggered by it).
package l2cap
