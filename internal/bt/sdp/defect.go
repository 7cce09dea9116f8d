package sdp

// ServerDefectKind names an SDP-server defect predicate family.
type ServerDefectKind string

// ServerDefectOverread is the declared-length parser-overread family: a
// request whose header declares more parameter bytes than the PDU
// carries makes the parser read past the end of its receive buffer.
const ServerDefectOverread ServerDefectKind = "declared-length-overread"

// ServerDefect models an implementation flaw in an SDP server's request
// parser as a declarative predicate over one raw request PDU: when it
// matches, parsing the request kills the server. A defect fires before
// any response is built — the server died mid-parse — so a triggered
// request gets no answer at all, not an error response. Like
// device.TriggerSpec it is pure data, so device configurations carrying
// it serialize and compare by value. A nil *ServerDefect is a robust
// server.
type ServerDefect struct {
	// Kind selects the predicate family.
	Kind ServerDefectKind `json:"kind"`
}

// Matches evaluates the defect predicate against one raw request PDU.
// Safe on a nil receiver, which matches nothing.
func (d *ServerDefect) Matches(raw []byte) bool {
	if d == nil {
		return false
	}
	switch d.Kind {
	case ServerDefectOverread:
		// A request shorter than a header fails with ErrShortPDU: the
		// parser bails before reading the declared length.
		_, _, declared, err := readHeader(raw)
		return err == ErrPDULength && declared > len(raw)-pduHeaderSize
	}
	return false
}

// OverreadDefect returns the classic declared-length parser overread. A
// well-formed PDU — any length, any PDU ID, including the truncated and
// garbage requests a robust server rejects with an error response —
// never triggers it, so ordinary service discovery traffic is safe.
func OverreadDefect() *ServerDefect {
	return &ServerDefect{Kind: ServerDefectOverread}
}
