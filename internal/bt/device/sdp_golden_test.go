package device

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sdp"
)

// sdpGoldenRequests are the requests TestSDPAnswersGolden puts to every
// catalog device's SDP server: the scanner's browse request, one too
// short for a PDU header, one whose header under-declares its
// parameters, and one with a PDU ID the server does not serve.
var sdpGoldenRequests = []struct {
	name string
	raw  []byte
}{
	{"browse", sdp.NewServiceSearchAttributeReq(0x1234).Marshal()},
	{"short", []byte{0x06, 0x00, 0x07}},
	{"bad-length", []byte{0x06, 0x00, 0x09, 0x00, 0x01, 0xAA, 0xBB}},
	{"wrong-id", sdp.PDU{ID: 0x02, TxnID: 0xBEEF, Params: []byte{0x35, 0x00}}.Marshal()},
}

// TestSDPAnswersGolden pins the bytes every catalog device's SDP server
// answers, armed and measurement-grade alike, one "<device>
// measure=<bool> <request> <answer hex>" line each. The golden was
// captured while the server still built and encoded its record list per
// request; encoding the answers once at construction must leave every
// byte, the echoed transaction IDs included, unchanged.
func TestSDPAnswersGolden(t *testing.T) {
	var b strings.Builder
	for _, measure := range []bool{false, true} {
		for _, s := range CatalogSpecs(measure) {
			d, err := New(radio.NewMedium(nil, radio.DefaultTiming()), s.Config)
			if err != nil {
				t.Fatal(err)
			}
			for _, req := range sdpGoldenRequests {
				fmt.Fprintf(&b, "%s measure=%v %s %x\n", s.Name, measure, req.name, d.sdpSrv.Handle(req.raw))
			}
		}
	}
	const path = "testdata/sdp_answers.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("SDP answers differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
