package l2cap

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary layout constants for the L2CAP basic frame (paper Figure 3).
const (
	// HeaderSize is the size of the basic L2CAP header: a 2-byte payload
	// length followed by a 2-byte channel ID.
	HeaderSize = 4
	// SignalHeaderSize is the size of a signaling command header: code,
	// identifier and a 2-byte data length.
	SignalHeaderSize = 4
	// MaxPayload is the maximum L2CAP payload length (65,535 bytes).
	MaxPayload = 0xFFFF
	// DefaultSignalingMTU is the minimum signaling MTU on ACL-U links
	// (MTUsig, Vol 3 Part A §4): every stack must accept signaling packets
	// up to this size, and may reject larger ones with "Signaling MTU
	// exceeded". L2Fuzz bounds its garbage tails so the mutated packet
	// stays within this limit.
	DefaultSignalingMTU = 672
	// MinACLMTU is the minimal MTU every L2CAP implementation must
	// support on connection-oriented channels.
	MinACLMTU = 48
)

// Common decode errors.
var (
	// ErrShortPacket indicates fewer bytes than the basic header requires.
	ErrShortPacket = errors.New("l2cap: packet shorter than basic header")
	// ErrLengthMismatch indicates the declared payload length exceeds the
	// bytes actually present.
	ErrLengthMismatch = errors.New("l2cap: declared payload length exceeds available bytes")
	// ErrShortCommand indicates a signaling payload shorter than the
	// 4-byte command header.
	ErrShortCommand = errors.New("l2cap: signaling payload shorter than command header")
	// ErrDataLength indicates a signaling command whose declared data
	// length exceeds the remaining payload bytes.
	ErrDataLength = errors.New("l2cap: command data length exceeds payload")
	// ErrBadCommand indicates command data that does not decode as the
	// layout its code requires.
	ErrBadCommand = errors.New("l2cap: malformed command data")
	// ErrUnknownCode indicates a command code outside the 26 defined ones.
	ErrUnknownCode = errors.New("l2cap: unknown command code")
)

// unknownCodeError is ErrUnknownCode naming the offending code. Peers
// under fuzz send unknown codes on the hot path, so the error is a
// plain byte that allocates nothing; its text is built only when
// printed.
type unknownCodeError uint8

func (e unknownCodeError) Error() string {
	return fmt.Sprintf("%v: 0x%02X", ErrUnknownCode, uint8(e))
}

func (unknownCodeError) Unwrap() error { return ErrUnknownCode }

// Packet is one L2CAP basic frame: the 4-byte header plus payload bytes.
//
// The Length field of the wire header is kept explicit rather than being
// derived from len(Payload): L2Fuzz keeps dependent fields at their
// original values while appending garbage, so the declared length and the
// actual byte count legitimately diverge in test packets. Use NewPacket to
// build a consistent frame and SignalPacket to carry a garbage tail
// beyond the declared length.
type Packet struct {
	// Length is the declared payload length from the wire header.
	Length uint16
	// ChannelID is the destination channel endpoint of the frame.
	ChannelID CID
	// Payload holds every byte after the header, including any trailing
	// garbage beyond the declared Length.
	Payload []byte
}

// NewPacket builds a consistent basic frame whose declared length matches
// the payload.
func NewPacket(cid CID, payload []byte) Packet {
	return Packet{
		Length:    uint16(min(len(payload), MaxPayload)),
		ChannelID: cid,
		Payload:   payload,
	}
}

// AppendTo appends the wire form of the frame to dst and returns the
// extended slice; pass nil for a fresh buffer.
func (p Packet) AppendTo(dst []byte) []byte {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint16(hdr[0:2], p.Length)
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(p.ChannelID))
	dst = append(dst, hdr[:]...)
	return append(dst, p.Payload...)
}

// ParsePacket decodes one basic frame without copying: the returned
// packet's Payload aliases raw (borrow semantics) and is valid only while
// raw is. Callers that retain the packet past the buffer's lifetime —
// inboxes, traces, any cross-packet state — must copy the payload.
//
// A frame whose declared length exceeds the available bytes fails with
// ErrLengthMismatch; a frame with *extra* bytes beyond the declared length
// decodes successfully and keeps them in Payload beyond Length, mirroring
// how permissive stacks treat garbage tails.
func ParsePacket(raw []byte) (Packet, error) {
	if len(raw) < HeaderSize {
		return Packet{}, fmt.Errorf("%w: got %d bytes", ErrShortPacket, len(raw))
	}
	p := Packet{
		Length:    binary.LittleEndian.Uint16(raw[0:2]),
		ChannelID: CID(binary.LittleEndian.Uint16(raw[2:4])),
		Payload:   raw[HeaderSize:],
	}
	if int(p.Length) > len(p.Payload) {
		return Packet{}, fmt.Errorf("%w: declared %d, available %d",
			ErrLengthMismatch, p.Length, len(p.Payload))
	}
	return p, nil
}

// IsSignaling reports whether the frame is addressed to the ACL-U
// signaling channel.
func (p Packet) IsSignaling() bool { return p.ChannelID == CIDSignaling }
