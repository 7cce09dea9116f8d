package l2cap

import "fmt"

// FieldClass is the L2Fuzz segmentation of L2CAP packet fields
// (paper §III-D): L = F ∪ D ∪ MC ∪ MA.
type FieldClass uint8

const (
	// FieldFixed (F) fields have specification-fixed values; the only one
	// is the basic-header channel ID, pinned to the signaling channel.
	FieldFixed FieldClass = iota + 1
	// FieldDependent (D) fields are derived from other values: payload
	// length, command code, identifier and data length.
	FieldDependent
	// FieldMutableCore (MC) fields determine the port and channel
	// endpoints: PSM, SCID, DCID, ICID and controller IDs (CONT ID).
	FieldMutableCore
	// FieldMutableApp (MA) fields carry per-command application data:
	// REASON, RESULT, STATUS, FLAGS, TYPE, INTERVAL, LATENCY, TIMEOUT,
	// SPSM, MTU, CREDIT, MPS, OPT and QoS.
	FieldMutableApp
)

// String names the class with the paper's symbols.
func (c FieldClass) String() string {
	switch c {
	case FieldFixed:
		return "F"
	case FieldDependent:
		return "D"
	case FieldMutableCore:
		return "MC"
	case FieldMutableApp:
		return "MA"
	default:
		return fmt.Sprintf("FieldClass(%d)", uint8(c))
	}
}

// FieldSpec describes one data field of a signaling command: its name as
// used by the paper's Figure 6 and the class it belongs to.
type FieldSpec struct {
	// Name is the field name in specification/paper terms.
	Name string
	// Class is the L2Fuzz field class.
	Class FieldClass
}

// commandFields maps every command to the classification of its data
// fields, in wire order. This is the machine-readable form of the paper's
// Figure 6 applied to each of the 26 commands.
var commandFields = map[CommandCode][]FieldSpec{
	CodeCommandReject: {
		{Name: "REASON", Class: FieldMutableApp},
		{Name: "REASON_DATA", Class: FieldMutableApp},
	},
	CodeConnectionReq: {
		{Name: "PSM", Class: FieldMutableCore},
		{Name: "SCID", Class: FieldMutableCore},
	},
	CodeConnectionRsp: {
		{Name: "DCID", Class: FieldMutableCore},
		{Name: "SCID", Class: FieldMutableCore},
		{Name: "RESULT", Class: FieldMutableApp},
		{Name: "STATUS", Class: FieldMutableApp},
	},
	CodeConfigurationReq: {
		{Name: "DCID", Class: FieldMutableCore},
		{Name: "FLAGS", Class: FieldMutableApp},
		{Name: "OPT", Class: FieldMutableApp},
	},
	CodeConfigurationRsp: {
		{Name: "SCID", Class: FieldMutableCore},
		{Name: "FLAGS", Class: FieldMutableApp},
		{Name: "RESULT", Class: FieldMutableApp},
		{Name: "OPT", Class: FieldMutableApp},
	},
	CodeDisconnectionReq: {
		{Name: "DCID", Class: FieldMutableCore},
		{Name: "SCID", Class: FieldMutableCore},
	},
	CodeDisconnectionRsp: {
		{Name: "DCID", Class: FieldMutableCore},
		{Name: "SCID", Class: FieldMutableCore},
	},
	CodeEchoReq: {
		{Name: "DATA", Class: FieldMutableApp},
	},
	CodeEchoRsp: {
		{Name: "DATA", Class: FieldMutableApp},
	},
	CodeInformationReq: {
		{Name: "TYPE", Class: FieldMutableApp},
	},
	CodeInformationRsp: {
		{Name: "TYPE", Class: FieldMutableApp},
		{Name: "RESULT", Class: FieldMutableApp},
		{Name: "DATA", Class: FieldMutableApp},
	},
	CodeCreateChannelReq: {
		{Name: "PSM", Class: FieldMutableCore},
		{Name: "SCID", Class: FieldMutableCore},
		{Name: "CONT_ID", Class: FieldMutableCore},
	},
	CodeCreateChannelRsp: {
		{Name: "DCID", Class: FieldMutableCore},
		{Name: "SCID", Class: FieldMutableCore},
		{Name: "RESULT", Class: FieldMutableApp},
		{Name: "STATUS", Class: FieldMutableApp},
	},
	CodeMoveChannelReq: {
		{Name: "ICID", Class: FieldMutableCore},
		{Name: "CONT_ID", Class: FieldMutableCore},
	},
	CodeMoveChannelRsp: {
		{Name: "ICID", Class: FieldMutableCore},
		{Name: "RESULT", Class: FieldMutableApp},
	},
	CodeMoveChannelConfirmReq: {
		{Name: "ICID", Class: FieldMutableCore},
		{Name: "RESULT", Class: FieldMutableApp},
	},
	CodeMoveChannelConfirmRsp: {
		{Name: "ICID", Class: FieldMutableCore},
	},
	CodeConnParamUpdateReq: {
		{Name: "INTERVAL_MIN", Class: FieldMutableApp},
		{Name: "INTERVAL_MAX", Class: FieldMutableApp},
		{Name: "LATENCY", Class: FieldMutableApp},
		{Name: "TIMEOUT", Class: FieldMutableApp},
	},
	CodeConnParamUpdateRsp: {
		{Name: "RESULT", Class: FieldMutableApp},
	},
	CodeLECreditConnReq: {
		{Name: "SPSM", Class: FieldMutableApp},
		{Name: "SCID", Class: FieldMutableCore},
		{Name: "MTU", Class: FieldMutableApp},
		{Name: "MPS", Class: FieldMutableApp},
		{Name: "CREDIT", Class: FieldMutableApp},
	},
	CodeLECreditConnRsp: {
		{Name: "DCID", Class: FieldMutableCore},
		{Name: "MTU", Class: FieldMutableApp},
		{Name: "MPS", Class: FieldMutableApp},
		{Name: "CREDIT", Class: FieldMutableApp},
		{Name: "RESULT", Class: FieldMutableApp},
	},
	CodeFlowControlCredit: {
		{Name: "CIDP", Class: FieldMutableCore},
		{Name: "CREDIT", Class: FieldMutableApp},
	},
	CodeCreditBasedConnReq: {
		{Name: "SPSM", Class: FieldMutableApp},
		{Name: "MTU", Class: FieldMutableApp},
		{Name: "MPS", Class: FieldMutableApp},
		{Name: "CREDIT", Class: FieldMutableApp},
		{Name: "SCID_LIST", Class: FieldMutableCore},
	},
	CodeCreditBasedConnRsp: {
		{Name: "MTU", Class: FieldMutableApp},
		{Name: "MPS", Class: FieldMutableApp},
		{Name: "CREDIT", Class: FieldMutableApp},
		{Name: "RESULT", Class: FieldMutableApp},
		{Name: "DCID_LIST", Class: FieldMutableCore},
	},
	CodeCreditBasedReconfReq: {
		{Name: "MTU", Class: FieldMutableApp},
		{Name: "MPS", Class: FieldMutableApp},
		{Name: "DCID_LIST", Class: FieldMutableCore},
	},
	CodeCreditBasedReconfRsp: {
		{Name: "RESULT", Class: FieldMutableApp},
	},
}

// DefaultCommand builds a command of the given code with the default
// (well-formed, non-malicious) values L2Fuzz keeps for MA fields:
// a benign SDP connect, a minimal config exchange, spec-minimum MTUs.
// The SCID/DCID defaults use the first dynamic CID, mirroring the
// "40 00" defaults in the paper's Figure 7.
func DefaultCommand(code CommandCode) (Command, error) {
	switch code {
	case CodeCommandReject:
		return &CommandReject{Reason: RejectNotUnderstood}, nil
	case CodeConnectionReq:
		return &ConnectionReq{PSM: PSMSDP, SCID: CIDDynamicFirst}, nil
	case CodeConnectionRsp:
		return &ConnectionRsp{
			DCID: CIDDynamicFirst, SCID: CIDDynamicFirst,
			Result: ConnResultSuccess,
		}, nil
	case CodeConfigurationReq:
		return &ConfigurationReq{
			DCID:    CIDDynamicFirst,
			Options: []ConfigOption{MTUOption(DefaultSignalingMTU)},
		}, nil
	case CodeConfigurationRsp:
		return &ConfigurationRsp{
			SCID: CIDDynamicFirst, Result: ConfigSuccess,
		}, nil
	case CodeDisconnectionReq:
		return &DisconnectionReq{DCID: CIDDynamicFirst, SCID: CIDDynamicFirst}, nil
	case CodeDisconnectionRsp:
		return &DisconnectionRsp{DCID: CIDDynamicFirst, SCID: CIDDynamicFirst}, nil
	case CodeEchoReq:
		return &EchoReq{}, nil
	case CodeEchoRsp:
		return &EchoRsp{}, nil
	case CodeInformationReq:
		return &InformationReq{InfoType: InfoTypeExtendedFeatures}, nil
	case CodeInformationRsp:
		return &InformationRsp{
			InfoType: InfoTypeExtendedFeatures,
			Result:   InfoResultSuccess,
			Data:     []byte{0x00, 0x00, 0x00, 0x00},
		}, nil
	case CodeCreateChannelReq:
		return &CreateChannelReq{PSM: PSMSDP, SCID: CIDDynamicFirst}, nil
	case CodeCreateChannelRsp:
		return &CreateChannelRsp{
			DCID: CIDDynamicFirst, SCID: CIDDynamicFirst,
			Result: ConnResultSuccess,
		}, nil
	case CodeMoveChannelReq:
		return &MoveChannelReq{ICID: CIDDynamicFirst}, nil
	case CodeMoveChannelRsp:
		return &MoveChannelRsp{ICID: CIDDynamicFirst, Result: MoveResultSuccess}, nil
	case CodeMoveChannelConfirmReq:
		return &MoveChannelConfirmReq{ICID: CIDDynamicFirst, Result: MoveResultSuccess}, nil
	case CodeMoveChannelConfirmRsp:
		return &MoveChannelConfirmRsp{ICID: CIDDynamicFirst}, nil
	case CodeConnParamUpdateReq:
		return &ConnParamUpdateReq{
			IntervalMin: 0x0006, IntervalMax: 0x0C80,
			Latency: 0, Timeout: 0x0258,
		}, nil
	case CodeConnParamUpdateRsp:
		return &ConnParamUpdateRsp{}, nil
	case CodeLECreditConnReq:
		return &LECreditConnReq{
			SPSM: 0x0080, SCID: CIDDynamicFirst,
			MTU: MinACLMTU, MPS: MinACLMTU, InitialCredits: 1,
		}, nil
	case CodeLECreditConnRsp:
		return &LECreditConnRsp{
			DCID: CIDDynamicFirst,
			MTU:  MinACLMTU, MPS: MinACLMTU, InitialCredits: 1,
		}, nil
	case CodeFlowControlCredit:
		return &FlowControlCredit{CID: CIDDynamicFirst, Credits: 1}, nil
	case CodeCreditBasedConnReq:
		return &CreditBasedConnReq{
			SPSM: 0x0080,
			MTU:  MinACLMTU, MPS: MinACLMTU, InitialCredits: 1,
			SCIDs: []CID{CIDDynamicFirst},
		}, nil
	case CodeCreditBasedConnRsp:
		return &CreditBasedConnRsp{
			MTU: MinACLMTU, MPS: MinACLMTU, InitialCredits: 1,
			DCIDs: []CID{CIDDynamicFirst},
		}, nil
	case CodeCreditBasedReconfReq:
		return &CreditBasedReconfReq{
			MTU: MinACLMTU, MPS: MinACLMTU,
			DCIDs: []CID{CIDDynamicFirst},
		}, nil
	case CodeCreditBasedReconfRsp:
		return &CreditBasedReconfRsp{}, nil
	default:
		return nil, unknownCodeError(code)
	}
}
