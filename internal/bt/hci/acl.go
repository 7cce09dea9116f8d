package hci

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PacketType is the HCI transport packet indicator (UART/H4 numbering).
type PacketType uint8

// HCI packet types.
const (
	// PacketCommand carries host-to-controller commands.
	PacketCommand PacketType = 0x01
	// PacketACL carries asynchronous connection-oriented data.
	PacketACL PacketType = 0x02
	// PacketSCO carries synchronous voice data.
	PacketSCO PacketType = 0x03
	// PacketEvent carries controller-to-host events.
	PacketEvent PacketType = 0x04
)

// ConnHandle is a 12-bit HCI connection handle.
type ConnHandle uint16

// MaxConnHandle is the largest legal connection handle value.
const MaxConnHandle ConnHandle = 0x0EFF

// BoundaryFlag is the 2-bit packet-boundary flag of an ACL packet.
type BoundaryFlag uint8

// Packet-boundary flags.
const (
	// BoundaryContinuation marks a continuation fragment.
	BoundaryContinuation BoundaryFlag = 0b01
	// BoundaryFirstFlushable marks the first fragment of an L2CAP frame.
	BoundaryFirstFlushable BoundaryFlag = 0b10
)

// ACLHeaderSize is the size of the ACL data packet header: 2 bytes of
// handle+flags and 2 bytes of data length (the paper's Figure 3 HCI
// fields: Connection Handle, Flag, Length).
const ACLHeaderSize = 4

// DefaultACLBufferSize is the controller's maximum ACL fragment payload.
// 1021 bytes is the common BR/EDR 3-DH5 controller buffer size; L2CAP
// frames longer than this are fragmented.
const DefaultACLBufferSize = 1021

// ACL decode errors.
var (
	// ErrShortACL indicates fewer bytes than the ACL header.
	ErrShortACL = errors.New("hci: ACL packet shorter than header")
	// ErrACLLength indicates a declared length mismatching the payload.
	ErrACLLength = errors.New("hci: ACL declared length mismatch")
	// ErrReassembly indicates an out-of-order or overflowing fragment.
	ErrReassembly = errors.New("hci: ACL reassembly error")
)

// ACLPacket is one HCI ACL data packet (one baseband fragment).
type ACLPacket struct {
	// Handle identifies the baseband connection.
	Handle ConnHandle
	// Boundary marks first vs continuation fragments.
	Boundary BoundaryFlag
	// Broadcast is the 2-bit broadcast flag; zero for point-to-point.
	Broadcast uint8
	// Data is the fragment payload.
	Data []byte
}

// AppendTo appends the wire form of the ACL packet to dst and returns the
// extended slice; pass nil for a fresh buffer.
func (p ACLPacket) AppendTo(dst []byte) []byte {
	var hdr [ACLHeaderSize]byte
	hf := uint16(p.Handle)&0x0FFF |
		uint16(p.Boundary&0b11)<<12 |
		uint16(p.Broadcast&0b11)<<14
	binary.LittleEndian.PutUint16(hdr[0:2], hf)
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(len(p.Data)))
	dst = append(dst, hdr[:]...)
	return append(dst, p.Data...)
}

// ParseACL decodes one ACL packet without copying: the returned packet's
// Data aliases raw (borrow semantics) and is valid only while raw is.
func ParseACL(raw []byte) (ACLPacket, error) {
	if len(raw) < ACLHeaderSize {
		return ACLPacket{}, fmt.Errorf("%w: got %d bytes", ErrShortACL, len(raw))
	}
	hf := binary.LittleEndian.Uint16(raw[0:2])
	declared := int(binary.LittleEndian.Uint16(raw[2:4]))
	body := raw[ACLHeaderSize:]
	if declared != len(body) {
		return ACLPacket{}, fmt.Errorf("%w: declared %d, got %d", ErrACLLength, declared, len(body))
	}
	return ACLPacket{
		Handle:    ConnHandle(hf & 0x0FFF),
		Boundary:  BoundaryFlag(hf >> 12 & 0b11),
		Broadcast: uint8(hf >> 14 & 0b11),
		Data:      body,
	}, nil
}

// Fragment splits one complete L2CAP frame into ACL packets no larger
// than bufSize, with correct boundary flags. bufSize values below 1 fall
// back to DefaultACLBufferSize.
func Fragment(handle ConnHandle, l2capFrame []byte, bufSize int) []ACLPacket {
	if bufSize < 1 {
		bufSize = DefaultACLBufferSize
	}
	var out []ACLPacket
	boundary := BoundaryFirstFlushable
	rest := l2capFrame
	for {
		n := min(len(rest), bufSize)
		out = append(out, ACLPacket{
			Handle:   handle,
			Boundary: boundary,
			Data:     append([]byte(nil), rest[:n]...),
		})
		rest = rest[n:]
		if len(rest) == 0 {
			return out
		}
		boundary = BoundaryContinuation
	}
}

// Reassembler rebuilds L2CAP frames from ACL fragments of one connection.
// The zero value is ready to use.
type Reassembler struct {
	buf      []byte
	expected int
	active   bool
}

// Push consumes one fragment. When a complete L2CAP frame (per its basic
// header length) is available it is returned with done=true and the
// reassembler resets. Fragments beyond the declared L2CAP length stay in
// the frame (garbage tails are part of the payload the paper's mutation
// produces), so completion is decided by "at least header+declared bytes
// and the fragment stream says first-fragment boundaries start frames".
//
// The returned frame is a borrow — it aliases either p.Data (when the
// frame completed in a single first fragment) or the reassembler's
// internal buffer — and is valid only until the next Push on this
// reassembler or until p.Data's own lifetime ends, whichever comes first.
// Callers that retain the frame must copy.
func (r *Reassembler) Push(p ACLPacket) (frame []byte, done bool, err error) {
	switch p.Boundary {
	case BoundaryFirstFlushable:
		if frameComplete(p.Data) {
			// Fast path: the whole L2CAP frame fits in this fragment, so
			// hand it back without staging it through the buffer.
			r.buf = r.buf[:0]
			r.active = false
			return p.Data, true, nil
		}
		// Starting a new frame implicitly discards any cut-short
		// predecessor still in the buffer.
		r.active = true
		r.buf = append(r.buf[:0], p.Data...)
	case BoundaryContinuation:
		if !r.active {
			return nil, false, fmt.Errorf("%w: continuation without start", ErrReassembly)
		}
		r.buf = append(r.buf, p.Data...)
	default:
		return nil, false, fmt.Errorf("%w: unexpected boundary flag %d", ErrReassembly, p.Boundary)
	}
	if !frameComplete(r.buf) {
		return nil, false, nil
	}
	// Complete. Tails (bytes beyond declared) are included: the sender
	// marked them part of this frame by not starting a new first-fragment.
	// The buffer is handed out as a borrow; the next first fragment
	// reclaims it.
	r.active = false
	return r.buf, true, nil
}

// frameComplete reports whether b holds at least one whole L2CAP basic
// frame: the 4-byte header plus its declared payload length.
func frameComplete(b []byte) bool {
	if len(b) < 4 {
		return false
	}
	return len(b) >= 4+int(binary.LittleEndian.Uint16(b[0:2]))
}
