package l2cap

import (
	"encoding/binary"
	"fmt"
)

// Compile-time interface compliance for every command type.
var (
	_ Command = (*CommandReject)(nil)
	_ Command = (*ConnectionReq)(nil)
	_ Command = (*ConnectionRsp)(nil)
	_ Command = (*ConfigurationReq)(nil)
	_ Command = (*ConfigurationRsp)(nil)
	_ Command = (*DisconnectionReq)(nil)
	_ Command = (*DisconnectionRsp)(nil)
	_ Command = (*EchoReq)(nil)
	_ Command = (*EchoRsp)(nil)
	_ Command = (*InformationReq)(nil)
	_ Command = (*InformationRsp)(nil)
)

func putU16(dst []byte, v uint16) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return append(dst, b[:]...)
}

func getU16(src []byte, off int) uint16 {
	return binary.LittleEndian.Uint16(src[off : off+2])
}

func wantLen(code CommandCode, data []byte, exact int) error {
	if len(data) != exact {
		return fmt.Errorf("%w: %v wants %d data bytes, got %d",
			ErrBadCommand, code, exact, len(data))
	}
	return nil
}

func wantMinLen(code CommandCode, data []byte, minimum int) error {
	if len(data) < minimum {
		return fmt.Errorf("%w: %v wants at least %d data bytes, got %d",
			ErrBadCommand, code, minimum, len(data))
	}
	return nil
}

// CommandReject (code 0x01) tells the sender a command was not accepted:
// the rejection signal the paper's PR-Ratio metric counts.
type CommandReject struct {
	// Reason explains the rejection.
	Reason RejectReason
	// ReasonData carries reason-specific bytes: empty for "not
	// understood", the 2-byte actual MTU for "MTU exceeded", and the two
	// 2-byte CIDs (local, remote) for "invalid CID".
	ReasonData []byte
}

// Code implements Command.
func (*CommandReject) Code() CommandCode { return CodeCommandReject }

// AppendData implements Command.
func (c *CommandReject) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.Reason))
	return append(dst, c.ReasonData...)
}

// UnmarshalData implements Command.
func (c *CommandReject) UnmarshalData(data []byte) error {
	if err := wantMinLen(CodeCommandReject, data, 2); err != nil {
		return err
	}
	c.Reason = RejectReason(getU16(data, 0))
	c.ReasonData = data[2:] // aliases data, per the Command borrow rule
	switch c.Reason {
	case RejectSignalingMTUExceeded:
		if len(c.ReasonData) != 2 {
			return fmt.Errorf("%w: MTU-exceeded reject wants 2 reason bytes, got %d",
				ErrBadCommand, len(c.ReasonData))
		}
	case RejectInvalidCID:
		if len(c.ReasonData) != 4 {
			return fmt.Errorf("%w: invalid-CID reject wants 4 reason bytes, got %d",
				ErrBadCommand, len(c.ReasonData))
		}
	}
	return nil
}

// AppendCoreFields implements Command. A reject carries no port or
// channel endpoint settings, so it exposes nothing to mutate.
func (c *CommandReject) AppendCoreFields(f CoreFields) CoreFields { return f.reset() }

// The setters below turn c into the reject a stack sends for one reason.
// They write the reason data into ReasonData's own backing array, so a
// sender that keeps one CommandReject allocates its buffer once. Call
// them only on a reject whose ReasonData the caller owns: a decoded
// reject's ReasonData aliases the frame it came from.

// SetNotUnderstood makes c the reject for a command the stack does not
// understand: no reason data.
func (c *CommandReject) SetNotUnderstood() {
	c.Reason = RejectNotUnderstood
	c.ReasonData = c.ReasonData[:0]
}

// SetInvalidCID makes c the reject for a command that referenced a
// channel endpoint the stack never allocated, naming the (local, remote)
// endpoint pair.
func (c *CommandReject) SetInvalidCID(local, remote CID) {
	c.Reason = RejectInvalidCID
	c.ReasonData = putU16(putU16(c.ReasonData[:0], uint16(local)), uint16(remote))
}

// SetMTUExceeded makes c the reject for an oversized signaling packet,
// reporting the stack's actual signaling MTU.
func (c *CommandReject) SetMTUExceeded(actualMTU uint16) {
	c.Reason = RejectSignalingMTUExceeded
	c.ReasonData = putU16(c.ReasonData[:0], actualMTU)
}

// ConnectionReq (code 0x02) asks to open a connection-oriented channel to
// the service behind PSM, naming the requester's endpoint SCID.
type ConnectionReq struct {
	// PSM is the target service port.
	PSM PSM
	// SCID is the source (requester-side) channel endpoint.
	SCID CID
}

// Code implements Command.
func (*ConnectionReq) Code() CommandCode { return CodeConnectionReq }

// AppendData implements Command.
func (c *ConnectionReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.PSM))
	return putU16(dst, uint16(c.SCID))
}

// UnmarshalData implements Command.
func (c *ConnectionReq) UnmarshalData(data []byte) error {
	if err := wantLen(CodeConnectionReq, data, 4); err != nil {
		return err
	}
	c.PSM = PSM(getU16(data, 0))
	c.SCID = CID(getU16(data, 2))
	return nil
}

// AppendCoreFields implements Command.
func (c *ConnectionReq) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.PSM = &c.PSM
	f.CIDs = append(f.CIDs, &c.SCID)
	return f
}

// ConnectionRsp (code 0x03) answers a ConnectionReq.
type ConnectionRsp struct {
	// DCID is the responder-side endpoint allocated for the channel.
	DCID CID
	// SCID echoes the requester's endpoint.
	SCID CID
	// Result reports the outcome.
	Result ConnResult
	// Status qualifies a pending result (authentication/authorization).
	Status uint16
}

// Code implements Command.
func (*ConnectionRsp) Code() CommandCode { return CodeConnectionRsp }

// AppendData implements Command.
func (c *ConnectionRsp) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.DCID))
	dst = putU16(dst, uint16(c.SCID))
	dst = putU16(dst, uint16(c.Result))
	return putU16(dst, c.Status)
}

// UnmarshalData implements Command.
func (c *ConnectionRsp) UnmarshalData(data []byte) error {
	if err := wantLen(CodeConnectionRsp, data, 8); err != nil {
		return err
	}
	c.DCID = CID(getU16(data, 0))
	c.SCID = CID(getU16(data, 2))
	c.Result = ConnResult(getU16(data, 4))
	c.Status = getU16(data, 6)
	return nil
}

// AppendCoreFields implements Command.
func (c *ConnectionRsp) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.DCID, &c.SCID)
	return f
}

// ConfigurationReq (code 0x04) proposes channel options for the channel
// whose remote endpoint is DCID. The paper's Figure 7 mutation example and
// the BlueDroid zero-day both ride on this command.
type ConfigurationReq struct {
	// DCID is the destination (responder-side) endpoint being configured.
	DCID CID
	// Flags bit 0 marks continuation packets.
	Flags uint16
	// Options are the proposed configuration options.
	Options []ConfigOption
}

// Code implements Command.
func (*ConfigurationReq) Code() CommandCode { return CodeConfigurationReq }

// AppendData implements Command.
func (c *ConfigurationReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.DCID))
	dst = putU16(dst, c.Flags)
	return appendOptions(dst, c.Options)
}

// UnmarshalData implements Command.
func (c *ConfigurationReq) UnmarshalData(data []byte) error {
	if err := wantMinLen(CodeConfigurationReq, data, 4); err != nil {
		return err
	}
	c.DCID = CID(getU16(data, 0))
	c.Flags = getU16(data, 2)
	opts, err := AppendParsedOptions(c.Options[:0], data[4:])
	if err != nil {
		return fmt.Errorf("%v options: %w", CodeConfigurationReq, err)
	}
	c.Options = opts
	return nil
}

// AppendCoreFields implements Command.
func (c *ConfigurationReq) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.DCID)
	return f
}

// ConfigurationRsp (code 0x05) answers a ConfigurationReq.
type ConfigurationRsp struct {
	// SCID is the endpoint of the original requester.
	SCID CID
	// Flags bit 0 marks continuation packets.
	Flags uint16
	// Result reports acceptance or the rejection class.
	Result ConfigResult
	// Options echoes or counter-proposes option values.
	Options []ConfigOption
}

// Code implements Command.
func (*ConfigurationRsp) Code() CommandCode { return CodeConfigurationRsp }

// AppendData implements Command.
func (c *ConfigurationRsp) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.SCID))
	dst = putU16(dst, c.Flags)
	dst = putU16(dst, uint16(c.Result))
	return appendOptions(dst, c.Options)
}

// UnmarshalData implements Command.
func (c *ConfigurationRsp) UnmarshalData(data []byte) error {
	if err := wantMinLen(CodeConfigurationRsp, data, 6); err != nil {
		return err
	}
	c.SCID = CID(getU16(data, 0))
	c.Flags = getU16(data, 2)
	c.Result = ConfigResult(getU16(data, 4))
	opts, err := AppendParsedOptions(c.Options[:0], data[6:])
	if err != nil {
		return fmt.Errorf("%v options: %w", CodeConfigurationRsp, err)
	}
	c.Options = opts
	return nil
}

// AppendCoreFields implements Command.
func (c *ConfigurationRsp) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.SCID)
	return f
}

// DisconnectionReq (code 0x06) tears down a channel identified by the
// (DCID, SCID) endpoint pair.
type DisconnectionReq struct {
	// DCID is the responder-side endpoint.
	DCID CID
	// SCID is the requester-side endpoint.
	SCID CID
}

// Code implements Command.
func (*DisconnectionReq) Code() CommandCode { return CodeDisconnectionReq }

// AppendData implements Command.
func (c *DisconnectionReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.DCID))
	return putU16(dst, uint16(c.SCID))
}

// UnmarshalData implements Command.
func (c *DisconnectionReq) UnmarshalData(data []byte) error {
	if err := wantLen(CodeDisconnectionReq, data, 4); err != nil {
		return err
	}
	c.DCID = CID(getU16(data, 0))
	c.SCID = CID(getU16(data, 2))
	return nil
}

// AppendCoreFields implements Command.
func (c *DisconnectionReq) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.DCID, &c.SCID)
	return f
}

// DisconnectionRsp (code 0x07) confirms a DisconnectionReq.
type DisconnectionRsp struct {
	// DCID echoes the responder-side endpoint.
	DCID CID
	// SCID echoes the requester-side endpoint.
	SCID CID
}

// Code implements Command.
func (*DisconnectionRsp) Code() CommandCode { return CodeDisconnectionRsp }

// AppendData implements Command.
func (c *DisconnectionRsp) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.DCID))
	return putU16(dst, uint16(c.SCID))
}

// UnmarshalData implements Command.
func (c *DisconnectionRsp) UnmarshalData(data []byte) error {
	if err := wantLen(CodeDisconnectionRsp, data, 4); err != nil {
		return err
	}
	c.DCID = CID(getU16(data, 0))
	c.SCID = CID(getU16(data, 2))
	return nil
}

// AppendCoreFields implements Command.
func (c *DisconnectionRsp) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.DCID, &c.SCID)
	return f
}

// EchoReq (code 0x08) is the L2CAP ping. L2Fuzz's vulnerability-detecting
// phase uses it as the liveness probe after each test packet.
type EchoReq struct {
	// Data is optional opaque echo payload.
	Data []byte
}

// Code implements Command.
func (*EchoReq) Code() CommandCode { return CodeEchoReq }

// AppendData implements Command.
func (c *EchoReq) AppendData(dst []byte) []byte { return append(dst, c.Data...) }

// UnmarshalData implements Command.
func (c *EchoReq) UnmarshalData(data []byte) error {
	c.Data = data // aliases data, per the Command borrow rule
	return nil
}

// AppendCoreFields implements Command.
func (c *EchoReq) AppendCoreFields(f CoreFields) CoreFields { return f.reset() }

// EchoRsp (code 0x09) answers an EchoReq.
type EchoRsp struct {
	// Data echoes the request payload.
	Data []byte
}

// Code implements Command.
func (*EchoRsp) Code() CommandCode { return CodeEchoRsp }

// AppendData implements Command.
func (c *EchoRsp) AppendData(dst []byte) []byte { return append(dst, c.Data...) }

// UnmarshalData implements Command.
func (c *EchoRsp) UnmarshalData(data []byte) error {
	c.Data = data // aliases data, per the Command borrow rule
	return nil
}

// AppendCoreFields implements Command.
func (c *EchoRsp) AppendCoreFields(f CoreFields) CoreFields { return f.reset() }

// InformationReq (code 0x0A) queries stack capabilities.
type InformationReq struct {
	// InfoType selects the queried capability.
	InfoType InfoType
}

// Code implements Command.
func (*InformationReq) Code() CommandCode { return CodeInformationReq }

// AppendData implements Command.
func (c *InformationReq) AppendData(dst []byte) []byte {
	return putU16(dst, uint16(c.InfoType))
}

// UnmarshalData implements Command.
func (c *InformationReq) UnmarshalData(data []byte) error {
	if err := wantLen(CodeInformationReq, data, 2); err != nil {
		return err
	}
	c.InfoType = InfoType(getU16(data, 0))
	return nil
}

// AppendCoreFields implements Command.
func (c *InformationReq) AppendCoreFields(f CoreFields) CoreFields { return f.reset() }

// InformationRsp (code 0x0B) answers an InformationReq.
type InformationRsp struct {
	// InfoType echoes the queried capability.
	InfoType InfoType
	// Result reports whether the capability is supported.
	Result InfoResult
	// Data carries the capability value when supported.
	Data []byte
}

// Code implements Command.
func (*InformationRsp) Code() CommandCode { return CodeInformationRsp }

// AppendData implements Command.
func (c *InformationRsp) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.InfoType))
	dst = putU16(dst, uint16(c.Result))
	return append(dst, c.Data...)
}

// UnmarshalData implements Command.
func (c *InformationRsp) UnmarshalData(data []byte) error {
	if err := wantMinLen(CodeInformationRsp, data, 4); err != nil {
		return err
	}
	c.InfoType = InfoType(getU16(data, 0))
	c.Result = InfoResult(getU16(data, 2))
	c.Data = data[4:] // aliases data, per the Command borrow rule
	return nil
}

// AppendCoreFields implements Command.
func (c *InformationRsp) AppendCoreFields(f CoreFields) CoreFields { return f.reset() }
