// Package sdp implements the subset of the Bluetooth Service Discovery
// Protocol that L2Fuzz's target-scanning phase depends on: enumerating
// the service ports (PSMs) a device exposes, over the pairing-free SDP
// channel (PSM 0x0001).
//
// The implementation is faithful where it matters for the reproduction:
//
//   - real data-element encoding (type/size descriptor bytes, unsigned
//     integers, UUIDs, strings and sequences — Vol 3 Part B §3),
//   - the ServiceSearchAttribute transaction (PDU IDs 0x06/0x07) with the
//     standard PDU header (ID, transaction ID, parameter length),
//   - service records carrying ServiceRecordHandle, ServiceClassIDList,
//     ProtocolDescriptorList (where the L2CAP PSM lives) and ServiceName.
//
// Continuation states and the other PDU types are omitted: responses in
// the simulation always fit one L2CAP SDU, and the scanner only ever
// issues the one transaction the paper's workflow needs.
//
// A Server's records never change once it is built, so NewServer encodes
// its two answers once: the attribute response over its services and
// the error response. Handle stamps the request's transaction ID into
// the right one and returns it as a borrow, valid until the next Handle
// and not to be modified; a caller that keeps an answer copies it, as
// the simulated device does when it frames the answer for sending.
// BuildAttributeResponse stays the reference encoding the server's
// answer is built from and tested against.
package sdp
