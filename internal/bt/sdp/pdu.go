package sdp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"l2fuzz/internal/bt/l2cap"
)

// PDUID identifies an SDP protocol data unit.
type PDUID uint8

// The PDU types the reproduction uses.
const (
	// PDUErrorRsp reports a protocol error.
	PDUErrorRsp PDUID = 0x01
	// PDUServiceSearchAttributeReq asks for attributes of matching records.
	PDUServiceSearchAttributeReq PDUID = 0x06
	// PDUServiceSearchAttributeRsp answers with an attribute list.
	PDUServiceSearchAttributeRsp PDUID = 0x07
)

// pduHeaderSize is PDU ID (1) + transaction ID (2) + parameter length (2).
const pduHeaderSize = 5

// Well-known attribute IDs.
const (
	// AttrServiceRecordHandle is attribute 0x0000.
	AttrServiceRecordHandle uint16 = 0x0000
	// AttrServiceClassIDList is attribute 0x0001.
	AttrServiceClassIDList uint16 = 0x0001
	// AttrProtocolDescriptorList is attribute 0x0004: where the L2CAP PSM
	// is published.
	AttrProtocolDescriptorList uint16 = 0x0004
	// AttrServiceName is attribute 0x0100 (with the default language base).
	AttrServiceName uint16 = 0x0100
)

// UUIDs used in records and search patterns.
const (
	// UUIDL2CAP is the L2CAP protocol UUID.
	UUIDL2CAP uint16 = 0x0100
	// UUIDPublicBrowseRoot is the public browse group root.
	UUIDPublicBrowseRoot uint16 = 0x1002
)

// PDU decode errors.
var (
	// ErrShortPDU indicates fewer bytes than the PDU header.
	ErrShortPDU = errors.New("sdp: PDU shorter than header")
	// ErrPDULength indicates a parameter-length mismatch.
	ErrPDULength = errors.New("sdp: PDU parameter length mismatch")
	// ErrWrongPDU indicates an unexpected PDU ID.
	ErrWrongPDU = errors.New("sdp: unexpected PDU type")
)

// PDU is one SDP protocol data unit.
type PDU struct {
	// ID is the PDU type.
	ID PDUID
	// TxnID matches responses to requests.
	TxnID uint16
	// Params is the parameter payload.
	Params []byte
}

// Marshal encodes the PDU.
func (p PDU) Marshal() []byte {
	out := make([]byte, pduHeaderSize, pduHeaderSize+len(p.Params))
	out[0] = uint8(p.ID)
	binary.BigEndian.PutUint16(out[1:3], p.TxnID)
	binary.BigEndian.PutUint16(out[3:5], uint16(len(p.Params)))
	return append(out, p.Params...)
}

// UnmarshalPDU decodes one PDU, copying the parameters.
func UnmarshalPDU(raw []byte) (PDU, error) {
	id, txn, declared, err := readHeader(raw)
	if err == ErrShortPDU {
		return PDU{}, fmt.Errorf("%w: got %d bytes", err, len(raw))
	}
	if err != nil {
		return PDU{}, fmt.Errorf("%w: declared %d, got %d",
			err, declared, len(raw)-pduHeaderSize)
	}
	return PDU{
		ID:     id,
		TxnID:  txn,
		Params: append([]byte(nil), raw[pduHeaderSize:]...),
	}, nil
}

// readHeader reads the header of the PDU raw should hold. It fails with
// ErrShortPDU when raw is shorter than a header, and with ErrPDULength,
// the header still read, when the declared parameter length differs
// from the bytes that follow. The errors are the bare sentinels, so the
// server can reject a request without formatting one.
func readHeader(raw []byte) (id PDUID, txn uint16, declared int, err error) {
	if len(raw) < pduHeaderSize {
		return 0, 0, 0, ErrShortPDU
	}
	id, txn = PDUID(raw[0]), binary.BigEndian.Uint16(raw[1:3])
	declared = int(binary.BigEndian.Uint16(raw[3:5]))
	if declared != len(raw)-pduHeaderSize {
		err = ErrPDULength
	}
	return id, txn, declared, err
}

// NewServiceSearchAttributeReq builds the browse-everything request the
// scanner issues: search pattern = {PublicBrowseRoot}, attribute range =
// all attributes, maximum response size = 0xFFFF.
func NewServiceSearchAttributeReq(txn uint16) PDU {
	var params []byte
	params = SeqEl(UUID16El(UUIDPublicBrowseRoot)).Marshal(params)
	var maxCount [2]byte
	binary.BigEndian.PutUint16(maxCount[:], 0xFFFF)
	params = append(params, maxCount[:]...)
	// Attribute ID range 0x0000-0xFFFF as a 32-bit range element.
	params = SeqEl(Uint32El(0x0000FFFF)).Marshal(params)
	params = append(params, 0x00) // no continuation state
	return PDU{ID: PDUServiceSearchAttributeReq, TxnID: txn, Params: params}
}

// ServiceInfo is one discovered service: the output of the scan.
type ServiceInfo struct {
	// Handle is the service record handle.
	Handle uint32
	// Name is the service name attribute.
	Name string
	// PSM is the L2CAP port from the protocol descriptor list.
	PSM l2cap.PSM
}

// BuildAttributeResponse encodes a ServiceSearchAttribute response
// carrying the given services.
func BuildAttributeResponse(txn uint16, services []ServiceInfo) PDU {
	var lists []DataElement
	for _, s := range services {
		record := SeqEl(
			Uint16El(AttrServiceRecordHandle), Uint32El(s.Handle),
			Uint16El(AttrProtocolDescriptorList), SeqEl(
				SeqEl(UUID16El(UUIDL2CAP), Uint16El(uint16(s.PSM))),
			),
			Uint16El(AttrServiceName), StringEl(s.Name),
		)
		lists = append(lists, record)
	}
	// The attribute list follows its 2-byte byte count.
	params := SeqEl(lists...).Marshal(make([]byte, 2))
	binary.BigEndian.PutUint16(params[0:2], uint16(len(params)-2))
	params = append(params, 0x00) // no continuation state
	return PDU{ID: PDUServiceSearchAttributeRsp, TxnID: txn, Params: params}
}

// ParseAttributeResponse decodes the services out of a
// ServiceSearchAttribute response.
func ParseAttributeResponse(p PDU) ([]ServiceInfo, error) {
	if p.ID != PDUServiceSearchAttributeRsp {
		return nil, fmt.Errorf("%w: got 0x%02X", ErrWrongPDU, uint8(p.ID))
	}
	if len(p.Params) < 3 {
		return nil, fmt.Errorf("%w: %d parameter bytes", ErrShortPDU, len(p.Params))
	}
	byteCount := int(binary.BigEndian.Uint16(p.Params[0:2]))
	if len(p.Params) < 2+byteCount {
		return nil, fmt.Errorf("%w: attribute bytes truncated", ErrPDULength)
	}
	root, _, err := UnmarshalElement(p.Params[2 : 2+byteCount])
	if err != nil {
		return nil, fmt.Errorf("attribute list: %w", err)
	}
	var out []ServiceInfo
	for _, rec := range root.Seq {
		info, err := parseRecord(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, nil
}

func parseRecord(rec DataElement) (ServiceInfo, error) {
	if rec.Type != TypeSequence || len(rec.Seq)%2 != 0 {
		return ServiceInfo{}, fmt.Errorf("%w: record is not an attribute sequence", ErrBadDescriptor)
	}
	var info ServiceInfo
	for i := 0; i+1 < len(rec.Seq); i += 2 {
		id := uint16(rec.Seq[i].Uint)
		val := rec.Seq[i+1]
		switch id {
		case AttrServiceRecordHandle:
			info.Handle = uint32(val.Uint)
		case AttrServiceName:
			info.Name = string(val.Bytes)
		case AttrProtocolDescriptorList:
			// Sequence of (protocol UUID, parameter...) sequences; find the
			// L2CAP entry and read its PSM parameter.
			for _, proto := range val.Seq {
				if proto.Type == TypeSequence && len(proto.Seq) >= 2 &&
					proto.Seq[0].Type == TypeUUID && uint16(proto.Seq[0].Uint) == UUIDL2CAP {
					info.PSM = l2cap.PSM(proto.Seq[1].Uint)
				}
			}
		}
	}
	return info, nil
}

// Server answers SDP requests from a device's service records. The
// records never change once the server is built, so it encodes its two
// possible answers, the attribute response and the error response, at
// construction; a request only selects one and stamps its transaction
// ID into it.
type Server struct {
	attrRsp []byte // ServiceSearchAttribute response over the services
	errRsp  []byte // error response: invalid request syntax
	defect  *ServerDefect
	crashed bool
}

// NewServer builds a server over the given services.
func NewServer(services []ServiceInfo) *Server {
	return &Server{
		attrRsp: BuildAttributeResponse(0, services).Marshal(),
		errRsp:  PDU{ID: PDUErrorRsp, Params: []byte{0x00, 0x03}}.Marshal(),
	}
}

// NewDefectiveServer builds a server carrying an injected parser defect.
// A nil defect gives the same robust server NewServer builds.
func NewDefectiveServer(services []ServiceInfo, defect *ServerDefect) *Server {
	s := NewServer(services)
	s.defect = defect
	return s
}

// Crashed reports whether an injected defect has killed the server.
func (s *Server) Crashed() bool { return s.crashed }

// Handle processes one raw request PDU and returns the raw response.
// Malformed or unsupported requests get an error response, as a real SDP
// server would produce; it echoes the request's transaction ID only when
// the header is consistent. A request that trips the injected defect
// kills the server mid-parse: it returns nil — no response at all — and
// every later request is swallowed the same way.
//
// The response is a borrow of the server's encoded answer, valid until
// the next Handle; the caller must copy it to keep it and must not
// modify it.
func (s *Server) Handle(raw []byte) []byte {
	if s.crashed {
		return nil
	}
	if s.defect.Matches(raw) {
		s.crashed = true
		return nil
	}
	id, txn, _, err := readHeader(raw)
	rsp := s.errRsp
	switch {
	case err != nil:
		txn = 0
	case id == PDUServiceSearchAttributeReq:
		rsp = s.attrRsp
	}
	binary.BigEndian.PutUint16(rsp[1:3], txn)
	return rsp
}
