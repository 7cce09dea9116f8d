package l2cap

import "fmt"

var (
	_ Command = (*ConnParamUpdateReq)(nil)
	_ Command = (*ConnParamUpdateRsp)(nil)
	_ Command = (*LECreditConnReq)(nil)
	_ Command = (*LECreditConnRsp)(nil)
	_ Command = (*FlowControlCredit)(nil)
	_ Command = (*CreditBasedConnReq)(nil)
	_ Command = (*CreditBasedConnRsp)(nil)
	_ Command = (*CreditBasedReconfReq)(nil)
	_ Command = (*CreditBasedReconfRsp)(nil)
)

// maxECREDChannels is the maximum number of channels one enhanced
// credit-based command may carry (Vol 3 Part A §4.25).
const maxECREDChannels = 5

// CreditFielder is implemented by the credit-based channel commands whose
// payloads carry flow-control negotiation values — SPSM, MTU, MPS and
// CREDIT, the mutable-application (MA) fields of the paper's Table I for
// the LE/enhanced credit-based command family. AppendCreditFields
// appends pointers into the command so a mutator can overwrite the
// values in place, mirroring how AppendCoreFields exposes the
// protocol-core fields.
//
// Result fields are excluded: they encode an outcome, not a negotiated
// quantity, and the classification keeps them fixed-application.
type CreditFielder interface {
	Command
	// AppendCreditFields appends in-place references to the command's
	// credit-negotiation fields, in wire order, to dst and returns the
	// extended slice; pass dst[:0] to reuse a scratch, nil for a fresh
	// slice.
	AppendCreditFields(dst []*uint16) []*uint16
}

var (
	_ CreditFielder = (*LECreditConnReq)(nil)
	_ CreditFielder = (*LECreditConnRsp)(nil)
	_ CreditFielder = (*FlowControlCredit)(nil)
	_ CreditFielder = (*CreditBasedConnReq)(nil)
	_ CreditFielder = (*CreditBasedConnRsp)(nil)
	_ CreditFielder = (*CreditBasedReconfReq)(nil)
)

// ConnParamUpdateReq (code 0x12) proposes new connection parameters.
// All four members are mutable-application (MA) fields in the paper's
// classification: INTERVAL, LATENCY and TIMEOUT.
type ConnParamUpdateReq struct {
	// IntervalMin is the minimum connection interval, in 1.25 ms units.
	IntervalMin uint16
	// IntervalMax is the maximum connection interval, in 1.25 ms units.
	IntervalMax uint16
	// Latency is the peripheral latency in connection events.
	Latency uint16
	// Timeout is the supervision timeout in 10 ms units.
	Timeout uint16
}

// Code implements Command.
func (*ConnParamUpdateReq) Code() CommandCode { return CodeConnParamUpdateReq }

// AppendData implements Command.
func (c *ConnParamUpdateReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, c.IntervalMin)
	dst = putU16(dst, c.IntervalMax)
	dst = putU16(dst, c.Latency)
	return putU16(dst, c.Timeout)
}

// UnmarshalData implements Command.
func (c *ConnParamUpdateReq) UnmarshalData(data []byte) error {
	if err := wantLen(CodeConnParamUpdateReq, data, 8); err != nil {
		return err
	}
	c.IntervalMin = getU16(data, 0)
	c.IntervalMax = getU16(data, 2)
	c.Latency = getU16(data, 4)
	c.Timeout = getU16(data, 6)
	return nil
}

// AppendCoreFields implements Command.
func (c *ConnParamUpdateReq) AppendCoreFields(f CoreFields) CoreFields { return f.reset() }

// ConnParamUpdateRsp (code 0x13) accepts or rejects the parameter update.
type ConnParamUpdateRsp struct {
	// Result is zero for accepted, one for rejected.
	Result uint16
}

// Code implements Command.
func (*ConnParamUpdateRsp) Code() CommandCode { return CodeConnParamUpdateRsp }

// AppendData implements Command.
func (c *ConnParamUpdateRsp) AppendData(dst []byte) []byte { return putU16(dst, c.Result) }

// UnmarshalData implements Command.
func (c *ConnParamUpdateRsp) UnmarshalData(data []byte) error {
	if err := wantLen(CodeConnParamUpdateRsp, data, 2); err != nil {
		return err
	}
	c.Result = getU16(data, 0)
	return nil
}

// AppendCoreFields implements Command.
func (c *ConnParamUpdateRsp) AppendCoreFields(f CoreFields) CoreFields { return f.reset() }

// LECreditConnReq (code 0x14) opens an LE credit-based channel. SPSM,
// MTU, MPS and CREDIT are MA fields per the paper; the SCID is CIDP.
type LECreditConnReq struct {
	// SPSM is the simplified PSM of the target service.
	SPSM uint16
	// SCID is the requester-side endpoint.
	SCID CID
	// MTU is the maximum transmission unit the requester can receive.
	MTU uint16
	// MPS is the maximum PDU size the requester can receive.
	MPS uint16
	// InitialCredits seeds the flow-control credit count.
	InitialCredits uint16
}

// Code implements Command.
func (*LECreditConnReq) Code() CommandCode { return CodeLECreditConnReq }

// AppendData implements Command.
func (c *LECreditConnReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, c.SPSM)
	dst = putU16(dst, uint16(c.SCID))
	dst = putU16(dst, c.MTU)
	dst = putU16(dst, c.MPS)
	return putU16(dst, c.InitialCredits)
}

// UnmarshalData implements Command.
func (c *LECreditConnReq) UnmarshalData(data []byte) error {
	if err := wantLen(CodeLECreditConnReq, data, 10); err != nil {
		return err
	}
	c.SPSM = getU16(data, 0)
	c.SCID = CID(getU16(data, 2))
	c.MTU = getU16(data, 4)
	c.MPS = getU16(data, 6)
	c.InitialCredits = getU16(data, 8)
	return nil
}

// AppendCoreFields implements Command.
func (c *LECreditConnReq) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.SCID)
	return f
}

// AppendCreditFields implements CreditFielder.
func (c *LECreditConnReq) AppendCreditFields(dst []*uint16) []*uint16 {
	return append(dst, &c.SPSM, &c.MTU, &c.MPS, &c.InitialCredits)
}

// LECreditConnRsp (code 0x15) answers an LECreditConnReq.
type LECreditConnRsp struct {
	// DCID is the responder-side endpoint.
	DCID CID
	// MTU is the responder's maximum transmission unit.
	MTU uint16
	// MPS is the responder's maximum PDU size.
	MPS uint16
	// InitialCredits seeds the responder's credit count.
	InitialCredits uint16
	// Result reports the outcome.
	Result uint16
}

// Code implements Command.
func (*LECreditConnRsp) Code() CommandCode { return CodeLECreditConnRsp }

// AppendData implements Command.
func (c *LECreditConnRsp) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.DCID))
	dst = putU16(dst, c.MTU)
	dst = putU16(dst, c.MPS)
	dst = putU16(dst, c.InitialCredits)
	return putU16(dst, c.Result)
}

// UnmarshalData implements Command.
func (c *LECreditConnRsp) UnmarshalData(data []byte) error {
	if err := wantLen(CodeLECreditConnRsp, data, 10); err != nil {
		return err
	}
	c.DCID = CID(getU16(data, 0))
	c.MTU = getU16(data, 2)
	c.MPS = getU16(data, 4)
	c.InitialCredits = getU16(data, 6)
	c.Result = getU16(data, 8)
	return nil
}

// AppendCoreFields implements Command.
func (c *LECreditConnRsp) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.DCID)
	return f
}

// AppendCreditFields implements CreditFielder.
func (c *LECreditConnRsp) AppendCreditFields(dst []*uint16) []*uint16 {
	return append(dst, &c.MTU, &c.MPS, &c.InitialCredits)
}

// FlowControlCredit (code 0x16) grants additional credits on a
// credit-based channel. Its CID names a channel endpoint in the payload,
// so it belongs to the CIDP set.
type FlowControlCredit struct {
	// CID is the channel receiving credits.
	CID CID
	// Credits is the number of additional credits granted.
	Credits uint16
}

// Code implements Command.
func (*FlowControlCredit) Code() CommandCode { return CodeFlowControlCredit }

// AppendData implements Command.
func (c *FlowControlCredit) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.CID))
	return putU16(dst, c.Credits)
}

// UnmarshalData implements Command.
func (c *FlowControlCredit) UnmarshalData(data []byte) error {
	if err := wantLen(CodeFlowControlCredit, data, 4); err != nil {
		return err
	}
	c.CID = CID(getU16(data, 0))
	c.Credits = getU16(data, 2)
	return nil
}

// AppendCoreFields implements Command.
func (c *FlowControlCredit) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = append(f.CIDs, &c.CID)
	return f
}

// AppendCreditFields implements CreditFielder.
func (c *FlowControlCredit) AppendCreditFields(dst []*uint16) []*uint16 {
	return append(dst, &c.Credits)
}

// appendCIDRefs appends a pointer to each element of cids to dst, for
// AppendCoreFields.
func appendCIDRefs(dst []*CID, cids []CID) []*CID {
	for i := range cids {
		dst = append(dst, &cids[i])
	}
	return dst
}

// marshalCIDs appends each CID in wire order.
func marshalCIDs(dst []byte, cids []CID) []byte {
	for _, cid := range cids {
		dst = putU16(dst, uint16(cid))
	}
	return dst
}

// appendCIDs decodes the trailing CID list of an enhanced credit-based
// command, appending to dst. The decoders pass their own list cut to
// length 0, so a reused command decodes in place.
func appendCIDs(dst []CID, code CommandCode, data []byte) ([]CID, error) {
	if len(data)%2 != 0 {
		return dst, fmt.Errorf("%w: %v CID list has odd length %d",
			ErrBadCommand, code, len(data))
	}
	n := len(data) / 2
	if n > maxECREDChannels {
		return dst, fmt.Errorf("%w: %v carries %d CIDs, max %d",
			ErrBadCommand, code, n, maxECREDChannels)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, CID(getU16(data, 2*i)))
	}
	return dst, nil
}

// CreditBasedConnReq (code 0x17) opens up to five enhanced credit-based
// channels in one transaction.
type CreditBasedConnReq struct {
	// SPSM is the simplified PSM of the target service.
	SPSM uint16
	// MTU is the requester's maximum transmission unit.
	MTU uint16
	// MPS is the requester's maximum PDU size.
	MPS uint16
	// InitialCredits seeds the credit count.
	InitialCredits uint16
	// SCIDs lists the requester-side endpoints, one per channel.
	SCIDs []CID
}

// Code implements Command.
func (*CreditBasedConnReq) Code() CommandCode { return CodeCreditBasedConnReq }

// AppendData implements Command.
func (c *CreditBasedConnReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, c.SPSM)
	dst = putU16(dst, c.MTU)
	dst = putU16(dst, c.MPS)
	dst = putU16(dst, c.InitialCredits)
	return marshalCIDs(dst, c.SCIDs)
}

// UnmarshalData implements Command.
func (c *CreditBasedConnReq) UnmarshalData(data []byte) error {
	if err := wantMinLen(CodeCreditBasedConnReq, data, 8); err != nil {
		return err
	}
	c.SPSM = getU16(data, 0)
	c.MTU = getU16(data, 2)
	c.MPS = getU16(data, 4)
	c.InitialCredits = getU16(data, 6)
	cids, err := appendCIDs(c.SCIDs[:0], CodeCreditBasedConnReq, data[8:])
	if err != nil {
		return err
	}
	c.SCIDs = cids
	return nil
}

// AppendCoreFields implements Command.
func (c *CreditBasedConnReq) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = appendCIDRefs(f.CIDs, c.SCIDs)
	return f
}

// AppendCreditFields implements CreditFielder.
func (c *CreditBasedConnReq) AppendCreditFields(dst []*uint16) []*uint16 {
	return append(dst, &c.SPSM, &c.MTU, &c.MPS, &c.InitialCredits)
}

// CreditBasedConnRsp (code 0x18) answers a CreditBasedConnReq.
type CreditBasedConnRsp struct {
	// MTU is the responder's maximum transmission unit.
	MTU uint16
	// MPS is the responder's maximum PDU size.
	MPS uint16
	// InitialCredits seeds the responder's credit count.
	InitialCredits uint16
	// Result reports the outcome.
	Result uint16
	// DCIDs lists the responder-side endpoints, one per accepted channel.
	DCIDs []CID
}

// Code implements Command.
func (*CreditBasedConnRsp) Code() CommandCode { return CodeCreditBasedConnRsp }

// AppendData implements Command.
func (c *CreditBasedConnRsp) AppendData(dst []byte) []byte {
	dst = putU16(dst, c.MTU)
	dst = putU16(dst, c.MPS)
	dst = putU16(dst, c.InitialCredits)
	dst = putU16(dst, c.Result)
	return marshalCIDs(dst, c.DCIDs)
}

// UnmarshalData implements Command.
func (c *CreditBasedConnRsp) UnmarshalData(data []byte) error {
	if err := wantMinLen(CodeCreditBasedConnRsp, data, 8); err != nil {
		return err
	}
	c.MTU = getU16(data, 0)
	c.MPS = getU16(data, 2)
	c.InitialCredits = getU16(data, 4)
	c.Result = getU16(data, 6)
	cids, err := appendCIDs(c.DCIDs[:0], CodeCreditBasedConnRsp, data[8:])
	if err != nil {
		return err
	}
	c.DCIDs = cids
	return nil
}

// AppendCoreFields implements Command.
func (c *CreditBasedConnRsp) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = appendCIDRefs(f.CIDs, c.DCIDs)
	return f
}

// AppendCreditFields implements CreditFielder.
func (c *CreditBasedConnRsp) AppendCreditFields(dst []*uint16) []*uint16 {
	return append(dst, &c.MTU, &c.MPS, &c.InitialCredits)
}

// CreditBasedReconfReq (code 0x19) renegotiates MTU/MPS on enhanced
// credit-based channels.
type CreditBasedReconfReq struct {
	// MTU is the new maximum transmission unit.
	MTU uint16
	// MPS is the new maximum PDU size.
	MPS uint16
	// DCIDs lists the channels being reconfigured.
	DCIDs []CID
}

// Code implements Command.
func (*CreditBasedReconfReq) Code() CommandCode { return CodeCreditBasedReconfReq }

// AppendData implements Command.
func (c *CreditBasedReconfReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, c.MTU)
	dst = putU16(dst, c.MPS)
	return marshalCIDs(dst, c.DCIDs)
}

// UnmarshalData implements Command.
func (c *CreditBasedReconfReq) UnmarshalData(data []byte) error {
	if err := wantMinLen(CodeCreditBasedReconfReq, data, 4); err != nil {
		return err
	}
	c.MTU = getU16(data, 0)
	c.MPS = getU16(data, 2)
	cids, err := appendCIDs(c.DCIDs[:0], CodeCreditBasedReconfReq, data[4:])
	if err != nil {
		return err
	}
	c.DCIDs = cids
	return nil
}

// AppendCoreFields implements Command.
func (c *CreditBasedReconfReq) AppendCoreFields(f CoreFields) CoreFields {
	f = f.reset()
	f.CIDs = appendCIDRefs(f.CIDs, c.DCIDs)
	return f
}

// AppendCreditFields implements CreditFielder.
func (c *CreditBasedReconfReq) AppendCreditFields(dst []*uint16) []*uint16 {
	return append(dst, &c.MTU, &c.MPS)
}

// CreditBasedReconfRsp (code 0x1A) answers a CreditBasedReconfReq.
type CreditBasedReconfRsp struct {
	// Result reports the outcome.
	Result uint16
}

// Code implements Command.
func (*CreditBasedReconfRsp) Code() CommandCode { return CodeCreditBasedReconfRsp }

// AppendData implements Command.
func (c *CreditBasedReconfRsp) AppendData(dst []byte) []byte { return putU16(dst, c.Result) }

// UnmarshalData implements Command.
func (c *CreditBasedReconfRsp) UnmarshalData(data []byte) error {
	if err := wantLen(CodeCreditBasedReconfRsp, data, 2); err != nil {
		return err
	}
	c.Result = getU16(data, 0)
	return nil
}

// AppendCoreFields implements Command.
func (c *CreditBasedReconfRsp) AppendCoreFields(f CoreFields) CoreFields { return f.reset() }
