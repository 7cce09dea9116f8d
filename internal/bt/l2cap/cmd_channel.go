package l2cap

var (
	_ Command = (*CreateChannelReq)(nil)
	_ Command = (*CreateChannelRsp)(nil)
	_ Command = (*MoveChannelReq)(nil)
	_ Command = (*MoveChannelRsp)(nil)
	_ Command = (*MoveChannelConfirmReq)(nil)
	_ Command = (*MoveChannelConfirmRsp)(nil)
)

// ControllerID names a physical controller in AMP create/move commands.
// Zero is the BR/EDR controller; non-zero values name AMP controllers.
// It is the CONT ID member of the paper's MC field set.
type ControllerID = uint8

// CreateChannelReq (code 0x0C) opens a channel on a specific controller.
// The paper's D3 (Galaxy S7) zero-day was triggered by a malformed
// Create Channel Request in the WAIT_CREATE state — a command and state
// only L2Fuzz exercises among the compared fuzzers.
type CreateChannelReq struct {
	// PSM is the target service port.
	PSM PSM
	// SCID is the requester-side channel endpoint.
	SCID CID
	// ControllerID selects the controller to carry the channel.
	ControllerID ControllerID
}

// Code implements Command.
func (*CreateChannelReq) Code() CommandCode { return CodeCreateChannelReq }

// AppendData implements Command.
func (c *CreateChannelReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.PSM))
	dst = putU16(dst, uint16(c.SCID))
	return append(dst, c.ControllerID)
}

// UnmarshalData implements Command.
func (c *CreateChannelReq) UnmarshalData(data []byte) error {
	if err := wantLen(CodeCreateChannelReq, data, 5); err != nil {
		return err
	}
	c.PSM = PSM(getU16(data, 0))
	c.SCID = CID(getU16(data, 2))
	c.ControllerID = data[4]
	return nil
}

// AppendCoreFields implements Command.
func (c *CreateChannelReq) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.PSM = &c.PSM
	f.CIDs = append(f.CIDs, &c.SCID)
	f.ControllerIDs = append(f.ControllerIDs, &c.ControllerID)
	return f
}

// CreateChannelRsp (code 0x0D) answers a CreateChannelReq.
type CreateChannelRsp struct {
	// DCID is the responder-side endpoint allocated for the channel.
	DCID CID
	// SCID echoes the requester's endpoint.
	SCID CID
	// Result reports the outcome.
	Result ConnResult
	// Status qualifies a pending result.
	Status uint16
}

// Code implements Command.
func (*CreateChannelRsp) Code() CommandCode { return CodeCreateChannelRsp }

// AppendData implements Command.
func (c *CreateChannelRsp) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.DCID))
	dst = putU16(dst, uint16(c.SCID))
	dst = putU16(dst, uint16(c.Result))
	return putU16(dst, c.Status)
}

// UnmarshalData implements Command.
func (c *CreateChannelRsp) UnmarshalData(data []byte) error {
	if err := wantLen(CodeCreateChannelRsp, data, 8); err != nil {
		return err
	}
	c.DCID = CID(getU16(data, 0))
	c.SCID = CID(getU16(data, 2))
	c.Result = ConnResult(getU16(data, 4))
	c.Status = getU16(data, 6)
	return nil
}

// AppendCoreFields implements Command.
func (c *CreateChannelRsp) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.DCID, &c.SCID)
	return f
}

// MoveChannelReq (code 0x0E) asks to move a channel to another controller.
type MoveChannelReq struct {
	// ICID is the initiator-side endpoint of the channel being moved.
	ICID CID
	// DestControllerID is the controller the channel should move to.
	DestControllerID ControllerID
}

// Code implements Command.
func (*MoveChannelReq) Code() CommandCode { return CodeMoveChannelReq }

// AppendData implements Command.
func (c *MoveChannelReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.ICID))
	return append(dst, c.DestControllerID)
}

// UnmarshalData implements Command.
func (c *MoveChannelReq) UnmarshalData(data []byte) error {
	if err := wantLen(CodeMoveChannelReq, data, 3); err != nil {
		return err
	}
	c.ICID = CID(getU16(data, 0))
	c.DestControllerID = data[2]
	return nil
}

// AppendCoreFields implements Command.
func (c *MoveChannelReq) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.ICID)
	f.ControllerIDs = append(f.ControllerIDs, &c.DestControllerID)
	return f
}

// MoveChannelRsp (code 0x0F) answers a MoveChannelReq.
type MoveChannelRsp struct {
	// ICID echoes the moved channel's initiator-side endpoint.
	ICID CID
	// Result reports the outcome.
	Result MoveResult
}

// Code implements Command.
func (*MoveChannelRsp) Code() CommandCode { return CodeMoveChannelRsp }

// AppendData implements Command.
func (c *MoveChannelRsp) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.ICID))
	return putU16(dst, uint16(c.Result))
}

// UnmarshalData implements Command.
func (c *MoveChannelRsp) UnmarshalData(data []byte) error {
	if err := wantLen(CodeMoveChannelRsp, data, 4); err != nil {
		return err
	}
	c.ICID = CID(getU16(data, 0))
	c.Result = MoveResult(getU16(data, 2))
	return nil
}

// AppendCoreFields implements Command.
func (c *MoveChannelRsp) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.ICID)
	return f
}

// MoveChannelConfirmReq (code 0x10) confirms the final move outcome.
type MoveChannelConfirmReq struct {
	// ICID names the moved channel.
	ICID CID
	// Result is the confirmed outcome.
	Result MoveResult
}

// Code implements Command.
func (*MoveChannelConfirmReq) Code() CommandCode { return CodeMoveChannelConfirmReq }

// AppendData implements Command.
func (c *MoveChannelConfirmReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.ICID))
	return putU16(dst, uint16(c.Result))
}

// UnmarshalData implements Command.
func (c *MoveChannelConfirmReq) UnmarshalData(data []byte) error {
	if err := wantLen(CodeMoveChannelConfirmReq, data, 4); err != nil {
		return err
	}
	c.ICID = CID(getU16(data, 0))
	c.Result = MoveResult(getU16(data, 2))
	return nil
}

// AppendCoreFields implements Command.
func (c *MoveChannelConfirmReq) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.ICID)
	return f
}

// MoveChannelConfirmRsp (code 0x11) acknowledges the confirmation.
type MoveChannelConfirmRsp struct {
	// ICID names the moved channel.
	ICID CID
}

// Code implements Command.
func (*MoveChannelConfirmRsp) Code() CommandCode { return CodeMoveChannelConfirmRsp }

// AppendData implements Command.
func (c *MoveChannelConfirmRsp) AppendData(dst []byte) []byte {
	return putU16(dst, uint16(c.ICID))
}

// UnmarshalData implements Command.
func (c *MoveChannelConfirmRsp) UnmarshalData(data []byte) error {
	if err := wantLen(CodeMoveChannelConfirmRsp, data, 2); err != nil {
		return err
	}
	c.ICID = CID(getU16(data, 0))
	return nil
}

// AppendCoreFields implements Command.
func (c *MoveChannelConfirmRsp) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.ICID)
	return f
}
