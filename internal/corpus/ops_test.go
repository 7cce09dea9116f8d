package corpus

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeOps is the ops decoder's differential check: on arbitrary
// bytes, Ops and json.Unmarshal into []Op either both fail or both
// yield values reflect.DeepEqual calls equal. It decodes three ways —
// through json.Unmarshal, as a trace's ops load; by a direct
// UnmarshalJSON call, which meets bytes json would reject as a whole;
// and a second time into the decoded value, where json.Unmarshal
// decodes into the ops already there — and checks the ops own their
// bytes. The committed corpus under testdata/fuzz/FuzzDecodeOps seeds
// the layouts the fast path takes and each kind of input it leaves to
// json.Unmarshal.
func FuzzDecodeOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []Op
		wantErr := json.Unmarshal(data, &want)
		check := func(how string, got Ops, err error) {
			t.Helper()
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: error %v, json.Unmarshal into []Op: %v", how, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual([]Op(got), want) {
				t.Fatalf("%s: %#v, json.Unmarshal into []Op: %#v", how, []Op(got), want)
			}
		}

		in := bytes.Clone(data)
		var got Ops
		err := json.Unmarshal(in, &got)
		clear(in)
		check("json.Unmarshal into Ops", got, err)

		var direct Ops
		err = direct.UnmarshalJSON(data)
		check("Ops.UnmarshalJSON", direct, err)

		wantErr = json.Unmarshal(data, &want)
		err = json.Unmarshal(data, &got)
		check("json.Unmarshal into decoded Ops", got, err)
	})
}

// TestOpsFastPathLayouts pins the layouts the fast path takes: Put's
// indented array and json.Marshal's compact one each decode in two
// allocations, the op slice and its data buffer.
func TestOpsFastPathLayouts(t *testing.T) {
	ops := goldenEntry().Trace.Ops
	compact, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(ops, "    ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"compact": compact, "indented": indented} {
		var got Ops
		allocs := testing.AllocsPerRun(10, func() {
			got = nil
			if err := got.UnmarshalJSON(data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 || !reflect.DeepEqual(got, ops) {
			t.Errorf("%s: %.0f allocations, ops %+v; want 2 and %+v", name, allocs, got, ops)
		}
	}
}
