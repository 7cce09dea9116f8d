package sdp

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"l2fuzz/internal/bt/l2cap"
)

func TestDataElementRoundTrips(t *testing.T) {
	tests := []struct {
		name string
		el   DataElement
	}{
		{"nil", DataElement{Type: TypeNil}},
		{"uint8", DataElement{Type: TypeUint, Uint: 0x7F}},
		{"uint16", Uint16El(0x1234)},
		{"uint32", Uint32El(0xDEADBEEF)},
		{"uuid16", UUID16El(0x0100)},
		{"string", StringEl("Service Discovery")},
		{"empty string", StringEl("")},
		{"flat sequence", SeqEl(Uint16El(1), Uint16El(2))},
		{"nested sequence", SeqEl(SeqEl(UUID16El(UUIDL2CAP), Uint16El(25)), StringEl("AVDTP"))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			wire := tt.el.Marshal(nil)
			out, used, err := UnmarshalElement(wire)
			if err != nil {
				t.Fatalf("UnmarshalElement() error = %v", err)
			}
			if used != len(wire) {
				t.Errorf("consumed %d of %d bytes", used, len(wire))
			}
			if out.Type != tt.el.Type {
				t.Errorf("type = %d, want %d", out.Type, tt.el.Type)
			}
			switch tt.el.Type {
			case TypeUint, TypeUUID:
				if out.Uint != tt.el.Uint {
					t.Errorf("uint = %d, want %d", out.Uint, tt.el.Uint)
				}
			case TypeString:
				if !bytes.Equal(out.Bytes, tt.el.Bytes) {
					t.Errorf("bytes = %q, want %q", out.Bytes, tt.el.Bytes)
				}
			case TypeSequence:
				if len(out.Seq) != len(tt.el.Seq) {
					t.Errorf("children = %d, want %d", len(out.Seq), len(tt.el.Seq))
				}
			}
		})
	}
}

func TestUnmarshalElementErrors(t *testing.T) {
	tests := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"truncated uint16", []byte{uint8(TypeUint)<<3 | 1, 0x12}},
		{"truncated string length", []byte{uint8(TypeString)<<3 | 5}},
		{"string overrun", []byte{uint8(TypeString)<<3 | 5, 10, 'a'}},
		{"bad size index", []byte{uint8(TypeUint)<<3 | 7, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := UnmarshalElement(tt.buf); err == nil {
				t.Fatal("UnmarshalElement() succeeded on malformed input")
			}
		})
	}
}

func TestPDURoundTrip(t *testing.T) {
	in := PDU{ID: PDUServiceSearchAttributeReq, TxnID: 0x1234, Params: []byte{1, 2, 3}}
	out, err := UnmarshalPDU(in.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalPDU() error = %v", err)
	}
	if out.ID != in.ID || out.TxnID != in.TxnID || !bytes.Equal(out.Params, in.Params) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestUnmarshalPDUErrors(t *testing.T) {
	if _, err := UnmarshalPDU([]byte{1, 2}); !errors.Is(err, ErrShortPDU) {
		t.Errorf("short error = %v, want ErrShortPDU", err)
	}
	bad := PDU{ID: PDUErrorRsp, Params: []byte{1}}.Marshal()
	bad = append(bad, 0xFF) // extra byte breaks declared length
	if _, err := UnmarshalPDU(bad); !errors.Is(err, ErrPDULength) {
		t.Errorf("length error = %v, want ErrPDULength", err)
	}
}

func TestServiceSearchAttributeTransaction(t *testing.T) {
	services := []ServiceInfo{
		{Handle: 0x10000, Name: "Service Discovery", PSM: l2cap.PSMSDP},
		{Handle: 0x10001, Name: "RFCOMM", PSM: l2cap.PSMRFCOMM},
		{Handle: 0x10002, Name: "AVDTP", PSM: l2cap.PSMAVDTP},
	}
	srv := NewServer(services)

	req := NewServiceSearchAttributeReq(0x0042)
	rspRaw := srv.Handle(req.Marshal())
	rsp, err := UnmarshalPDU(rspRaw)
	if err != nil {
		t.Fatalf("UnmarshalPDU(response) error = %v", err)
	}
	if rsp.TxnID != 0x0042 {
		t.Errorf("TxnID = %#x, want 0x0042", rsp.TxnID)
	}
	got, err := ParseAttributeResponse(rsp)
	if err != nil {
		t.Fatalf("ParseAttributeResponse() error = %v", err)
	}
	if len(got) != len(services) {
		t.Fatalf("got %d services, want %d", len(got), len(services))
	}
	for i, s := range services {
		if got[i] != s {
			t.Errorf("service[%d] = %+v, want %+v", i, got[i], s)
		}
	}
}

func TestServerRejectsMalformedAndWrongPDUs(t *testing.T) {
	srv := NewServer(nil)

	rsp, err := UnmarshalPDU(srv.Handle([]byte{0xFF}))
	if err != nil {
		t.Fatalf("error response malformed: %v", err)
	}
	if rsp.ID != PDUErrorRsp {
		t.Errorf("malformed request answered with %v, want error PDU", rsp.ID)
	}

	wrong := PDU{ID: 0x02, TxnID: 9}.Marshal()
	rsp, err = UnmarshalPDU(srv.Handle(wrong))
	if err != nil {
		t.Fatalf("error response malformed: %v", err)
	}
	if rsp.ID != PDUErrorRsp || rsp.TxnID != 9 {
		t.Errorf("wrong-PDU answered with %+v, want error PDU echoing txn", rsp)
	}
}

func TestParseAttributeResponseRejectsWrongType(t *testing.T) {
	if _, err := ParseAttributeResponse(PDU{ID: PDUErrorRsp}); !errors.Is(err, ErrWrongPDU) {
		t.Errorf("error = %v, want ErrWrongPDU", err)
	}
}

func TestEmptyServiceList(t *testing.T) {
	srv := NewServer(nil)
	rsp, err := UnmarshalPDU(srv.Handle(NewServiceSearchAttributeReq(1).Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAttributeResponse(rsp)
	if err != nil {
		t.Fatalf("ParseAttributeResponse() error = %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d services, want 0", len(got))
	}
}

// Property: UnmarshalElement never panics and consumed never exceeds the
// buffer.
func TestQuickUnmarshalElementTotal(t *testing.T) {
	f := func(buf []byte) bool {
		_, used, err := UnmarshalElement(buf)
		if err != nil {
			return true
		}
		return used > 0 && used <= len(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the server is total — any byte string gets some well-formed
// PDU response.
func TestQuickServerTotal(t *testing.T) {
	srv := NewServer([]ServiceInfo{{Handle: 1, Name: "x", PSM: 0x0001}})
	f := func(raw []byte) bool {
		rsp := srv.Handle(raw)
		_, err := UnmarshalPDU(rsp)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// TestLongServiceNameRoundTrips pins the string length form: a name of
// 256 bytes or more no longer fits the 8-bit length prefix, so it must
// travel with the 16-bit one (size index 6) instead of wrapping its
// length and corrupting the rest of the answer.
func TestLongServiceNameRoundTrips(t *testing.T) {
	services := []ServiceInfo{
		{Handle: 0x10000, Name: "Service Discovery", PSM: l2cap.PSMSDP},
		{Handle: 0x10001, Name: strings.Repeat("n", 300), PSM: 0x1001},
		{Handle: 0x10002, Name: "AVDTP", PSM: l2cap.PSMAVDTP},
	}
	rsp, err := UnmarshalPDU(NewServer(services).Handle(NewServiceSearchAttributeReq(7).Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAttributeResponse(rsp)
	if err != nil {
		t.Fatalf("ParseAttributeResponse() error = %v", err)
	}
	if !slices.Equal(got, services) {
		t.Fatalf("services = %+v, want %+v", got, services)
	}
	if short := StringEl(strings.Repeat("s", 255)).Marshal(nil); short[0] != uint8(TypeString)<<3|5 || len(short) != 2+255 {
		t.Errorf("255-byte string encoded as % x..., want the 8-bit length form", short[:2])
	}
}

// TestWarmHandleDoesNotAllocate pins the server's request path: once
// built, answering a valid request or rejecting an invalid one
// allocates nothing.
func TestWarmHandleDoesNotAllocate(t *testing.T) {
	srv := NewServer([]ServiceInfo{
		{Handle: 0x10000, Name: "Service Discovery", PSM: l2cap.PSMSDP},
		{Handle: 0x10001, Name: "RFCOMM", PSM: l2cap.PSMRFCOMM},
	})
	for _, tt := range []struct {
		name string
		raw  []byte
	}{
		{"valid", NewServiceSearchAttributeReq(1).Marshal()},
		{"short", []byte{0x06, 0x00}},
		{"bad length", []byte{0x06, 0x00, 0x01, 0x00, 0x09, 0x00}},
		{"wrong id", PDU{ID: 0x02, TxnID: 3}.Marshal()},
	} {
		srv.Handle(tt.raw)
		if n := testing.AllocsPerRun(100, func() { srv.Handle(tt.raw) }); n != 0 {
			t.Errorf("%s request: warm Handle allocates %.1f times", tt.name, n)
		}
	}
}
