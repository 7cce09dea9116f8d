package sdp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ElementType is the 5-bit data-element type descriptor.
type ElementType uint8

// Data-element types (Vol 3 Part B §3.2).
const (
	// TypeNil is the null type.
	TypeNil ElementType = 0
	// TypeUint is an unsigned integer.
	TypeUint ElementType = 1
	// TypeUUID is a UUID.
	TypeUUID ElementType = 3
	// TypeString is a text string.
	TypeString ElementType = 4
	// TypeSequence is a data-element sequence.
	TypeSequence ElementType = 6
)

// DataElement is one decoded SDP data element.
type DataElement struct {
	// Type is the element type.
	Type ElementType
	// Uint holds the value for TypeUint and TypeUUID elements.
	Uint uint64
	// Bytes holds the value for TypeString elements.
	Bytes []byte
	// Seq holds the children for TypeSequence elements.
	Seq []DataElement
}

// Decode errors.
var (
	// ErrTruncated indicates the buffer ended inside an element.
	ErrTruncated = errors.New("sdp: truncated data element")
	// ErrBadDescriptor indicates an unsupported type/size descriptor.
	ErrBadDescriptor = errors.New("sdp: unsupported element descriptor")
)

// Uint16El builds a 16-bit unsigned element.
func Uint16El(v uint16) DataElement {
	return DataElement{Type: TypeUint, Uint: uint64(v), Bytes: []byte{2}}
}

// Uint32El builds a 32-bit unsigned element.
func Uint32El(v uint32) DataElement {
	return DataElement{Type: TypeUint, Uint: uint64(v), Bytes: []byte{4}}
}

// UUID16El builds a 16-bit UUID element.
func UUID16El(v uint16) DataElement {
	return DataElement{Type: TypeUUID, Uint: uint64(v), Bytes: []byte{2}}
}

// StringEl builds a string element.
func StringEl(s string) DataElement {
	return DataElement{Type: TypeString, Bytes: []byte(s)}
}

// SeqEl builds a sequence element.
func SeqEl(children ...DataElement) DataElement {
	return DataElement{Type: TypeSequence, Seq: children}
}

// width returns the declared byte width for integer-like elements,
// defaulting sensibly when the hint byte is absent.
func (e DataElement) width() int {
	if len(e.Bytes) == 1 {
		switch e.Bytes[0] {
		case 1, 2, 4, 8:
			return int(e.Bytes[0])
		}
	}
	switch {
	case e.Uint > 0xFFFFFFFF:
		return 8
	case e.Uint > 0xFFFF:
		return 4
	case e.Uint > 0xFF:
		return 2
	default:
		return 1
	}
}

// Marshal appends the wire form of the element to dst.
//
// SDP data elements are big-endian, unlike the L2CAP layers below.
func (e DataElement) Marshal(dst []byte) []byte {
	switch e.Type {
	case TypeNil:
		return append(dst, 0x00)
	case TypeUint, TypeUUID:
		w := e.width()
		// Size indexes 0-3 are the 1-, 2-, 4- and 8-byte integers.
		var sizeIdx uint8
		switch w {
		case 2:
			sizeIdx = 1
		case 4:
			sizeIdx = 2
		case 8:
			sizeIdx = 3
		}
		dst = append(dst, uint8(e.Type)<<3|sizeIdx)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], e.Uint)
		return append(dst, buf[8-w:]...)
	case TypeString:
		if len(e.Bytes) > 0xFF {
			// size index 6: 16-bit length prefix (Vol 3 Part B §3.3).
			dst = append(dst, uint8(e.Type)<<3|6)
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Bytes)))
		} else {
			// size index 5: 8-bit length prefix.
			dst = append(dst, uint8(e.Type)<<3|5, uint8(len(e.Bytes)))
		}
		return append(dst, e.Bytes...)
	case TypeSequence:
		// size index 6: 16-bit length prefix. The children are encoded
		// in place behind the header, then the length is patched in.
		start := len(dst)
		dst = append(dst, uint8(e.Type)<<3|6, 0, 0)
		for _, c := range e.Seq {
			dst = c.Marshal(dst)
		}
		binary.BigEndian.PutUint16(dst[start+1:start+3], uint16(len(dst)-start-3))
		return dst
	default:
		// Encode unknown types as nil to keep Marshal total.
		return append(dst, 0x00)
	}
}

// UnmarshalElement decodes one element from buf, returning it and the
// number of bytes consumed.
func UnmarshalElement(buf []byte) (DataElement, int, error) {
	if len(buf) == 0 {
		return DataElement{}, 0, ErrTruncated
	}
	desc := buf[0]
	typ := ElementType(desc >> 3)
	sizeIdx := desc & 0x07
	off := 1

	// Resolve the payload length.
	var n int
	switch sizeIdx {
	case 0, 1, 2, 3, 4:
		n = 1 << sizeIdx
		if typ == TypeNil {
			n = 0
		}
	case 5:
		if len(buf) < off+1 {
			return DataElement{}, 0, ErrTruncated
		}
		n = int(buf[off])
		off++
	case 6:
		if len(buf) < off+2 {
			return DataElement{}, 0, ErrTruncated
		}
		n = int(binary.BigEndian.Uint16(buf[off : off+2]))
		off += 2
	default:
		return DataElement{}, 0, fmt.Errorf("%w: size index %d", ErrBadDescriptor, sizeIdx)
	}
	if len(buf) < off+n {
		return DataElement{}, 0, fmt.Errorf("%w: want %d payload bytes, have %d",
			ErrTruncated, n, len(buf)-off)
	}
	payload := buf[off : off+n]

	el := DataElement{Type: typ}
	switch typ {
	case TypeNil:
	case TypeUint, TypeUUID:
		if n > 8 {
			return DataElement{}, 0, fmt.Errorf("%w: %d-byte integer", ErrBadDescriptor, n)
		}
		var buf8 [8]byte
		copy(buf8[8-n:], payload)
		el.Uint = binary.BigEndian.Uint64(buf8[:])
		el.Bytes = []byte{uint8(n)}
	case TypeString:
		el.Bytes = append([]byte(nil), payload...)
	case TypeSequence:
		rest := payload
		for len(rest) > 0 {
			child, used, err := UnmarshalElement(rest)
			if err != nil {
				return DataElement{}, 0, fmt.Errorf("sequence child: %w", err)
			}
			el.Seq = append(el.Seq, child)
			rest = rest[used:]
		}
	default:
		return DataElement{}, 0, fmt.Errorf("%w: type %d", ErrBadDescriptor, typ)
	}
	return el, off + n, nil
}
