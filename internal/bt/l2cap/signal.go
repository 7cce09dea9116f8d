package l2cap

import (
	"encoding/binary"
	"fmt"
)

// Frame is one signaling command as carried on the signaling channel:
// a 4-byte command header (code, identifier, data length) followed by the
// declared data bytes and any trailing garbage beyond the declared length.
type Frame struct {
	// Code identifies the signaling command.
	Code CommandCode
	// Identifier matches responses to requests. Zero is illegal on the
	// wire; the spec requires a non-zero identifier.
	Identifier uint8
	// Data holds exactly the declared data-length bytes.
	Data []byte
	// Tail holds bytes that followed the declared data within the same
	// L2CAP payload — the garbage tail appended by core-field mutating.
	Tail []byte
}

// ParseSignals decodes the sequence of signaling frames packed into one
// signaling-channel payload. BR/EDR permits multiple commands per C-frame;
// parsing stops at the first frame that cannot be decoded, returning the
// frames decoded so far together with the error. A trailing fragment too
// short to be a command header is attributed to the previous frame's Tail
// (or reported as an error when there is no previous frame).
//
// Each frame's Data and Tail alias payload (borrow semantics): the frames
// are valid only while payload is. Callers that retain them must copy.
func ParseSignals(payload []byte) ([]Frame, error) {
	return AppendSignals(nil, payload)
}

// AppendSignals is ParseSignals with a caller-supplied destination: the
// decoded frames are appended to dst (usually a reused scratch slice with
// length 0), avoiding a slice allocation per payload on the hot path. The
// same borrow semantics apply: Data and Tail alias payload. Its errors
// are the bare ErrShortCommand and ErrDataLength, so a malformed payload
// costs no formatting either.
func AppendSignals(dst []Frame, payload []byte) ([]Frame, error) {
	base := len(dst)
	off := 0
	for off < len(payload) {
		rest := payload[off:]
		if len(rest) < SignalHeaderSize {
			if len(dst) == base {
				return dst[:base], ErrShortCommand
			}
			last := &dst[len(dst)-1]
			last.Tail = appendTail(last.Tail, payload, off)
			return dst, nil
		}
		dataLen := int(binary.LittleEndian.Uint16(rest[2:4]))
		if SignalHeaderSize+dataLen > len(rest) {
			if len(dst) == base {
				return dst[:base], ErrDataLength
			}
			last := &dst[len(dst)-1]
			last.Tail = appendTail(last.Tail, payload, off)
			return dst, nil
		}
		dst = append(dst, Frame{
			Code:       CommandCode(rest[0]),
			Identifier: rest[1],
			Data:       rest[SignalHeaderSize : SignalHeaderSize+dataLen : SignalHeaderSize+dataLen],
		})
		off += SignalHeaderSize + dataLen
	}
	return dst, nil
}

// appendTail extends a frame's tail with payload[off:]. When the existing
// tail already aliases payload and ends exactly at off — the only way this
// parser produces a non-empty tail — the extension is a re-slice; the
// empty-tail case borrows directly. (A copying append would silently break
// the borrow contract by mixing owned and aliased tails.)
func appendTail(tail, payload []byte, off int) []byte {
	if len(tail) == 0 {
		return payload[off:]
	}
	// tail is payload[off-len(tail) : off]; grow it in place.
	return payload[off-len(tail):]
}

// Command is one decoded signaling command. Implementations are the 26
// concrete command structs in this package; all use pointer receivers.
type Command interface {
	// Code returns the signaling command code.
	Code() CommandCode
	// AppendData appends the command's data fields (the bytes that follow
	// the 4-byte command header) to dst and returns the extended slice;
	// pass nil for a fresh buffer.
	AppendData(dst []byte) []byte
	// UnmarshalData decodes the command's data fields. Variable-length
	// members ([]byte fields such as echo payloads and reject reason
	// data) alias the argument slice (borrow semantics): the decoded
	// command is valid only while data is. Callers that retain the
	// command past the buffer's lifetime must copy those fields.
	UnmarshalData(data []byte) error
	// AppendCoreFields refills f with the mutable-core (MC) fields of the
	// command for L2Fuzz's core-field mutating: the PSM (port) and every
	// channel ID carried in the payload (CIDP). It empties f first, so
	// nothing of an earlier command survives, and appends into f's CIDs
	// and ControllerIDs backing arrays, so a caller that passes back the
	// previous result allocates nothing once they have grown. Pass the
	// zero CoreFields for fresh slices. Nil/empty members mean the
	// command has no such field.
	AppendCoreFields(f CoreFields) CoreFields
}

// CoreFields references a command's mutable-core fields in place, letting
// a mutator rewrite them without knowing the command layout. The
// pointers reach into the command that filled it and stay valid as long
// as that command does.
type CoreFields struct {
	// PSM points at the command's port field, if any.
	PSM *PSM
	// CIDs points at every channel-ID-in-payload field (SCID, DCID, ICID),
	// in wire order.
	CIDs []*CID
	// ControllerIDs points at every controller-ID field (the CONT ID
	// member of MC in the paper's Figure 6).
	ControllerIDs []*uint8
}

// reset empties c for refilling: no PSM, and CIDs and ControllerIDs cut
// to length zero over their backing arrays.
func (c CoreFields) reset() CoreFields {
	return CoreFields{CIDs: c.CIDs[:0], ControllerIDs: c.ControllerIDs[:0]}
}

// newCommand returns a zero-valued concrete command for code.
func newCommand(code CommandCode) (Command, error) {
	switch code {
	case CodeCommandReject:
		return &CommandReject{}, nil
	case CodeConnectionReq:
		return &ConnectionReq{}, nil
	case CodeConnectionRsp:
		return &ConnectionRsp{}, nil
	case CodeConfigurationReq:
		return &ConfigurationReq{}, nil
	case CodeConfigurationRsp:
		return &ConfigurationRsp{}, nil
	case CodeDisconnectionReq:
		return &DisconnectionReq{}, nil
	case CodeDisconnectionRsp:
		return &DisconnectionRsp{}, nil
	case CodeEchoReq:
		return &EchoReq{}, nil
	case CodeEchoRsp:
		return &EchoRsp{}, nil
	case CodeInformationReq:
		return &InformationReq{}, nil
	case CodeInformationRsp:
		return &InformationRsp{}, nil
	case CodeCreateChannelReq:
		return &CreateChannelReq{}, nil
	case CodeCreateChannelRsp:
		return &CreateChannelRsp{}, nil
	case CodeMoveChannelReq:
		return &MoveChannelReq{}, nil
	case CodeMoveChannelRsp:
		return &MoveChannelRsp{}, nil
	case CodeMoveChannelConfirmReq:
		return &MoveChannelConfirmReq{}, nil
	case CodeMoveChannelConfirmRsp:
		return &MoveChannelConfirmRsp{}, nil
	case CodeConnParamUpdateReq:
		return &ConnParamUpdateReq{}, nil
	case CodeConnParamUpdateRsp:
		return &ConnParamUpdateRsp{}, nil
	case CodeLECreditConnReq:
		return &LECreditConnReq{}, nil
	case CodeLECreditConnRsp:
		return &LECreditConnRsp{}, nil
	case CodeFlowControlCredit:
		return &FlowControlCredit{}, nil
	case CodeCreditBasedConnReq:
		return &CreditBasedConnReq{}, nil
	case CodeCreditBasedConnRsp:
		return &CreditBasedConnRsp{}, nil
	case CodeCreditBasedReconfReq:
		return &CreditBasedReconfReq{}, nil
	case CodeCreditBasedReconfRsp:
		return &CreditBasedReconfRsp{}, nil
	default:
		return nil, unknownCodeError(code)
	}
}

// DecodeCommand turns a signaling frame into a freshly allocated concrete
// command. Only the struct is fresh: its variable-length fields (echo
// data, reject reason data, option values) alias f.Data under the
// UnmarshalData borrow rule. Hot paths that decode one frame at a time
// should prefer a reused Decoder.
func DecodeCommand(f Frame) (Command, error) {
	cmd, err := newCommand(f.Code)
	if err != nil {
		return nil, err
	}
	if err := cmd.UnmarshalData(f.Data); err != nil {
		return nil, fmt.Errorf("decode %v: %w", f.Code, err)
	}
	return cmd, nil
}

// Decoder decodes signaling frames into a per-code cache of command
// instances, so a packet-processing loop pays no allocation per decoded
// command. The returned command is owned by the decoder and overwritten
// by the next Decode of the same code: callers use it within the current
// handling step (or copy what they keep), exactly the window the borrow
// rule on UnmarshalData already imposes. A Decoder is not safe for
// concurrent use; give each device, sniffer, or client its own.
type Decoder struct {
	cache [256]Command
}

// Decode turns a signaling frame into its concrete command, reusing the
// decoder's cached instance for the frame's code.
func (d *Decoder) Decode(f Frame) (Command, error) {
	cmd := d.cache[f.Code]
	if cmd == nil {
		fresh, err := newCommand(f.Code)
		if err != nil {
			return nil, err
		}
		d.cache[f.Code] = fresh
		cmd = fresh
	}
	if err := cmd.UnmarshalData(f.Data); err != nil {
		return nil, fmt.Errorf("decode %v: %w", f.Code, err)
	}
	return cmd, nil
}

// AppendSignalFrame appends the wire form of one signaling frame — the
// 4-byte command header, the command data, then the garbage tail beyond
// the declared length — to dst, returning the extended slice and the
// declared frame size (header + data, tail excluded). It is the core of
// SignalPacket.
func AppendSignalFrame(dst []byte, id uint8, cmd Command, tail []byte) (out []byte, declared int) {
	start := len(dst)
	dst = append(dst, uint8(cmd.Code()), id, 0, 0)
	dst = cmd.AppendData(dst)
	dataLen := len(dst) - start - SignalHeaderSize
	binary.LittleEndian.PutUint16(dst[start+2:start+4], uint16(dataLen))
	dst = append(dst, tail...)
	return dst, SignalHeaderSize + dataLen
}

// SignalPacket builds a complete basic frame carrying a single signaling
// command on the signaling channel. The payload is encoded into dst's
// storage from its start (pass nil for a fresh buffer, or a scratch to
// reuse; the packet's payload aliases it). The declared lengths describe
// the command without the tail, reproducing the paper's Figure 7 layout
// where garbage lives beyond every declared length.
func SignalPacket(dst []byte, id uint8, cmd Command, tail []byte) Packet {
	payload, declared := AppendSignalFrame(dst[:0], id, cmd, tail)
	return Packet{
		Length:    uint16(min(declared, MaxPayload)),
		ChannelID: CIDSignaling,
		Payload:   payload,
	}
}
