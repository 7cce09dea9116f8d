package sdp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"l2fuzz/internal/bt/l2cap"
)

// fuzzServices derives a server's records from fuzz input: up to eight
// services, one per newline-separated name, each name cut to 300 bytes
// so the 16-bit string form is in reach while the answer still fits
// one 16-bit-length PDU.
func fuzzServices(names string, psm uint16) []ServiceInfo {
	if names == "" {
		return nil
	}
	parts := strings.SplitN(names, "\n", 9)
	services := make([]ServiceInfo, 0, 8)
	for i, name := range parts[:min(len(parts), 8)] {
		services = append(services, ServiceInfo{
			Handle: 0x00010000 + uint32(i),
			Name:   name[:min(len(name), 300)],
			PSM:    l2cap.PSM(psm + 2*uint16(i)),
		})
	}
	return services
}

// referenceAnswer is what a server over services answers req, built
// from scratch the way the server did before it encoded its answers
// once: the attribute response for a consistent ServiceSearchAttribute
// request, an error response otherwise, echoing the transaction ID only
// when the header is consistent.
func referenceAnswer(req []byte, services []ServiceInfo) []byte {
	if len(req) < pduHeaderSize || int(binary.BigEndian.Uint16(req[3:5])) != len(req)-pduHeaderSize {
		return PDU{ID: PDUErrorRsp, Params: []byte{0x00, 0x03}}.Marshal()
	}
	txn := binary.BigEndian.Uint16(req[1:3])
	if PDUID(req[0]) != PDUServiceSearchAttributeReq {
		return PDU{ID: PDUErrorRsp, TxnID: txn, Params: []byte{0x00, 0x03}}.Marshal()
	}
	return BuildAttributeResponse(txn, services).Marshal()
}

// FuzzServerHandle checks the server's encode-once request path against
// the reference answer built per request, for any request bytes, over
// fuzz-derived records, with the overread defect on and off. Each
// request is answered twice around a valid request carrying another
// transaction ID, so an answer patched in place must not leak the
// previous request's ID. Once the defect fires, the server must stay
// silent for good. Every attribute answer must parse back into the
// services it was built from.
func FuzzServerHandle(f *testing.F) {
	f.Add(NewServiceSearchAttributeReq(1).Marshal(), "Service Discovery\nRFCOMM", uint16(0x0001), false)
	f.Add([]byte{0x06, 0x00}, "", uint16(0x1001), true)
	f.Fuzz(func(t *testing.T, req []byte, names string, psm uint16, overread bool) {
		services := fuzzServices(names, psm)
		var defect *ServerDefect
		if overread {
			defect = OverreadDefect()
		}
		srv := NewDefectiveServer(services, defect)
		probe := NewServiceSearchAttributeReq(0xA5A5).Marshal()
		for i, raw := range [][]byte{req, probe, req} {
			fires := defect.Matches(raw)
			got := srv.Handle(raw)
			if fires || srv.Crashed() {
				if got != nil {
					t.Fatalf("request %d: crashed server answered % x", i, got)
				}
				if !srv.Crashed() {
					t.Fatalf("request %d: the defect fired but the server is not crashed", i)
				}
				continue
			}
			want := referenceAnswer(raw, services)
			if !bytes.Equal(got, want) {
				t.Fatalf("request %d (% x): Handle() =\n% x\nwant\n% x", i, raw, got, want)
			}
			if PDUID(got[0]) != PDUServiceSearchAttributeRsp {
				continue
			}
			rsp, err := UnmarshalPDU(got)
			if err != nil {
				t.Fatalf("request %d: attribute answer does not decode: %v", i, err)
			}
			parsed, err := ParseAttributeResponse(rsp)
			if err != nil {
				t.Fatalf("request %d: ParseAttributeResponse() error = %v", i, err)
			}
			if !slices.Equal(parsed, services) {
				t.Fatalf("request %d: parsed services %+v, want %+v", i, parsed, services)
			}
		}
	})
}

// FuzzParseAttributeResponse feeds the tester's side of service
// discovery arbitrary bytes, as host.QuerySDP feeds it a target's
// answer: UnmarshalPDU, then ParseAttributeResponse. Neither may panic,
// every error wraps one of the package's five errors, and the attribute
// list's root element decodes, re-encodes and decodes to itself
// wherever Marshal can encode it.
func FuzzParseAttributeResponse(f *testing.F) {
	rsp := BuildAttributeResponse(1, []ServiceInfo{{Handle: 0x00010000, Name: "Service Discovery", PSM: l2cap.PSMSDP}}).Marshal()
	f.Add(rsp)
	f.Fuzz(func(t *testing.T, raw []byte) {
		pdu, err := UnmarshalPDU(raw)
		if err == nil {
			_, err = ParseAttributeResponse(pdu)
		}
		if err != nil && !slices.ContainsFunc([]error{ErrTruncated, ErrBadDescriptor, ErrShortPDU, ErrPDULength, ErrWrongPDU},
			func(e error) bool { return errors.Is(err, e) }) {
			t.Fatalf("error %q wraps none of the package's errors", err)
		}
		if len(pdu.Params) < 2 {
			return
		}
		list := pdu.Params[2:]
		list = list[:min(len(list), int(binary.BigEndian.Uint16(pdu.Params[0:2])))]
		root, _, err := UnmarshalElement(list)
		if err != nil || !encodable(root) {
			return
		}
		wire := root.Marshal(nil)
		if root.Type == TypeSequence && len(wire)-3 > 0xFFFF {
			return // the 16-bit sequence length cannot hold it
		}
		again, n, err := UnmarshalElement(wire)
		if err != nil || n != len(wire) || !reflect.DeepEqual(again, root) {
			t.Fatalf("the root element re-encodes to % x, which decodes to another element (%d of %d bytes, %v)", wire, n, len(wire), err)
		}
	})
}

// encodable reports whether Marshal can write e and every element in it
// so that they decode back unchanged: Marshal declares integers only as
// 1, 2, 4 or 8 bytes. (Sequence lengths are the caller's check.)
func encodable(e DataElement) bool {
	switch e.Type {
	case TypeUint, TypeUUID:
		return len(e.Bytes) == 1 && slices.Contains([]byte{1, 2, 4, 8}, e.Bytes[0])
	case TypeSequence:
		return !slices.ContainsFunc(e.Seq, func(c DataElement) bool { return !encodable(c) })
	}
	return true
}
