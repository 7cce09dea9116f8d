package device

import (
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
// re-encode through EncodeSpec and decode back equal. The seeds are the
// documented example (and the decoder tests' variant without
// "expectVuln") and the eight catalog specs, each renamed to its device
// name because the JSON form carries one name.
func FuzzDecodeSpec(f *testing.F) {
	f.Add([]byte(specDocExample))
	f.Add([]byte(validSpecJSON))
	for _, spec := range CatalogSpecs(false) {
		spec.Name = spec.Config.Name
		data, err := EncodeSpec(spec)
		if err != nil {
			f.Fatalf("catalog spec %s: %v", spec.Name, err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("decoded spec does not validate: %v", err)
		}
		enc, err := EncodeSpec(spec)
		if err != nil {
			t.Fatalf("decoded spec does not encode: %v", err)
		}
		again, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("encoded spec does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("spec changed through EncodeSpec and DecodeSpec:\n got %+v\nwant %+v\nvia %s", again, spec, enc)
		}
	})
}
