package device

import (
	"encoding/json"
	"reflect"
	"testing"
)

// specDocExample is the JSON example of the specDoc documentation.
const specDocExample = `{
  "name": "smart-speaker",
  "addr": "D0:03:DF:12:34:56",
  "classOfDevice": 2360324,
  "profile": {"stack": "bluedroid", "btVersion": "5.2", "fingerprint": "vendor/speaker:12"},
  "ports": [
    {"psm": 1, "name": "Service Discovery"},
    {"psm": 3, "name": "RFCOMM", "requiresPairing": true},
    {"psm": 4097, "name": "vendor-control"}
  ],
  "defects": ["ccb-null-deref"],
  "rfcomm": {"services": [{"channel": 1, "name": "Serial Port Profile"}], "defect": true},
  "expectVuln": true,
  "expectClass": "DoS"
}`

// FuzzDecodeSpec feeds DecodeSpec arbitrary bytes: it must return a spec
// that validates or an error, never panic, and a spec it returns must
// survive the struct form machines write — json.Marshal, then
// json.Unmarshal into a Spec — unchanged. The f.Add seeds are the
// documented example and the decoder tests' variant without
// "expectVuln". The eight catalog specs, each in the JSON form under its
// device name, are committed under testdata/fuzz/FuzzDecodeSpec as
// seed#2 to seed#9.
func FuzzDecodeSpec(f *testing.F) {
	f.Add([]byte(specDocExample))
	f.Add([]byte(validSpecJSON))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("decoded spec does not validate: %v", err)
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("decoded spec does not marshal: %v", err)
		}
		var again Spec
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("marshalled spec does not unmarshal: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("spec changed through its struct form:\n got %+v\nwant %+v\nvia %s", again, spec, enc)
		}
	})
}
