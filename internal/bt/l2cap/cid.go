package l2cap

import "fmt"

// CID is an L2CAP channel identifier. Channel identifiers are the local
// names of channel endpoints on a device; each end of a logical link
// allocates its own CIDs independently.
type CID uint16

// Reserved channel identifiers on ACL-U logical links (Vol 3 Part A §2.1).
const (
	// CIDNull is invalid and never identifies a channel.
	CIDNull CID = 0x0000
	// CIDSignaling carries L2CAP signaling commands. It is the only value
	// the L2CAP basic-header channel ID takes for the packets this
	// reproduction generates; L2Fuzz classifies the header CID as a fixed
	// (F) field for exactly that reason.
	CIDSignaling CID = 0x0001
	// CIDConnectionless carries connectionless (group) traffic.
	CIDConnectionless CID = 0x0002
	// CIDAMPManager is reserved for the AMP manager protocol.
	CIDAMPManager CID = 0x0003
	// CIDBREDRSecurityManager carries Security Manager traffic on BR/EDR.
	CIDBREDRSecurityManager CID = 0x0007
	// CIDAMPTestManager is reserved for AMP test traffic.
	CIDAMPTestManager CID = 0x003F
	// CIDDynamicFirst is the first dynamically allocatable CID on ACL-U.
	CIDDynamicFirst CID = 0x0040
	// CIDDynamicLast is the last dynamically allocatable CID.
	CIDDynamicLast CID = 0xFFFF
)

// IsDynamic reports whether c lies in the dynamically-allocated CID range
// [0x0040, 0xFFFF]. Table IV of the paper uses exactly this range as the
// mutation domain for channel-IDs-in-payload (CIDP): values inside the
// normal range still trigger faults when they ignore the device's actual
// dynamic allocation.
func (c CID) IsDynamic() bool { return c >= CIDDynamicFirst }

// String renders the CID in the 0xNNNN form used by the specification.
func (c CID) String() string { return fmt.Sprintf("CID(0x%04X)", uint16(c)) }

// PSM is a Protocol/Service Multiplexer: the L2CAP analogue of a port
// number. Valid PSMs are odd in the least significant octet and even in
// the most significant octet (Vol 3 Part A §4.2).
type PSM uint16

// Well-known PSM values (Bluetooth Assigned Numbers).
const (
	// PSMSDP is the Service Discovery Protocol port. Every Bluetooth
	// device supports it and it never requires pairing, which is why
	// L2Fuzz's target-scanning phase falls back to it.
	PSMSDP PSM = 0x0001
	// PSMRFCOMM is the RFCOMM multiplexer port.
	PSMRFCOMM PSM = 0x0003
	// PSMTCSBIN is telephony control.
	PSMTCSBIN PSM = 0x0005
	// PSMBNEP is the Bluetooth network encapsulation protocol port.
	PSMBNEP PSM = 0x000F
	// PSMHIDControl is the HID control channel port.
	PSMHIDControl PSM = 0x0011
	// PSMHIDInterrupt is the HID interrupt channel port.
	PSMHIDInterrupt PSM = 0x0013
	// PSMAVCTP is the audio/video control transport port.
	PSMAVCTP PSM = 0x0017
	// PSMAVDTP is the audio/video distribution transport port.
	PSMAVDTP PSM = 0x0019
	// PSMATT is the attribute protocol port on BR/EDR.
	PSMATT PSM = 0x001F
	// PSMDynamicFirst is the first dynamically assignable PSM.
	PSMDynamicFirst PSM = 0x1001
)

// String renders the PSM in specification notation.
func (p PSM) String() string { return fmt.Sprintf("PSM(0x%04X)", uint16(p)) }

// AbnormalPSMRange is one contiguous range of PSM values that L2Fuzz uses
// as malicious data (Table IV). The ranges deliberately violate the
// structural PSM rule, so a correct stack must reject them while a buggy
// one may mis-handle them.
type AbnormalPSMRange struct {
	Lo, Hi PSM
}

// Contains reports whether p falls inside the range.
func (r AbnormalPSMRange) Contains(p PSM) bool { return p >= r.Lo && p <= r.Hi }

// AbnormalPSMRanges reproduces the PSM row of Table IV: the odd-MSB bands
// 0x0100-0x01FF, 0x0300-0x03FF, 0x0500-0x05FF, 0x0700-0x07FF,
// 0x0900-0x09FF, 0x0B00-0x0BFF and 0x0D00-0x0DFF. The table's final entry,
// "all even values", is handled separately by IsAbnormalPSM because it is
// not contiguous.
func AbnormalPSMRanges() []AbnormalPSMRange {
	return []AbnormalPSMRange{
		{Lo: 0x0100, Hi: 0x01FF},
		{Lo: 0x0300, Hi: 0x03FF},
		{Lo: 0x0500, Hi: 0x05FF},
		{Lo: 0x0700, Hi: 0x07FF},
		{Lo: 0x0900, Hi: 0x09FF},
		{Lo: 0x0B00, Hi: 0x0BFF},
		{Lo: 0x0D00, Hi: 0x0DFF},
	}
}

// IsAbnormalPSM reports whether p belongs to the malicious PSM domain of
// Table IV: one of the odd-MSB bands, or any even value.
func IsAbnormalPSM(p PSM) bool {
	if p&0x0001 == 0 {
		return true // all even values
	}
	for _, r := range AbnormalPSMRanges() {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// CIDPRange reproduces the CIDP row of Table IV: channel IDs carried in
// command payloads are drawn from the normal dynamic range
// [0x0040, 0xFFFF], ignoring the device's actual dynamic allocation.
func CIDPRange() (lo, hi CID) { return CIDDynamicFirst, CIDDynamicLast }
