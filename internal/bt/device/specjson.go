package device

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/rfcomm"
	"l2fuzz/internal/bt/sm"
)

// The JSON form of a target spec, as consumed by DecodeSpec (and the
// l2farm -device-file flag):
//
//	{
//	  "name": "smart-speaker",
//	  "addr": "D0:03:DF:12:34:56",
//	  "classOfDevice": 2360324,
//	  "profile": {"stack": "bluedroid", "btVersion": "5.2", "fingerprint": "vendor/speaker:12"},
//	  "ports": [
//	    {"psm": 1, "name": "Service Discovery"},
//	    {"psm": 3, "name": "RFCOMM", "requiresPairing": true},
//	    {"psm": 4097, "name": "vendor-control"}
//	  ],
//	  "defects": ["ccb-null-deref"],
//	  "rfcomm": {"services": [{"channel": 1, "name": "Serial Port Profile"}], "defect": true},
//	  "expectVuln": true,
//	  "expectClass": "DoS"
//	}
//
// name, addr and profile.stack are required; everything else is
// optional. Unknown fields are rejected. "defects" names injected L2CAP
// defects from the catalog's four, calibrated as the paper's devices
// ship them; "rfcomm.defect" arms the reserved-DLCI mux defect. When
// "expectVuln" is absent it defaults to true iff any defect is armed,
// and an absent "expectClass" takes the first armed defect's class.
type specDoc struct {
	Name          string     `json:"name"`
	Addr          string     `json:"addr"`
	ClassOfDevice uint32     `json:"classOfDevice,omitempty"`
	Profile       profileDoc `json:"profile"`
	Ports         []portDoc  `json:"ports,omitempty"`
	Defects       []string   `json:"defects,omitempty"`
	RFCOMM        *rfcommDoc `json:"rfcomm,omitempty"`
	ExpectVuln    *bool      `json:"expectVuln,omitempty"`
	ExpectClass   string     `json:"expectClass,omitempty"`
}

type profileDoc struct {
	Stack       string `json:"stack"`
	BTVersion   string `json:"btVersion,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

type portDoc struct {
	PSM             uint16 `json:"psm"`
	Name            string `json:"name,omitempty"`
	RequiresPairing bool   `json:"requiresPairing,omitempty"`
}

type rfcommDoc struct {
	Services []serviceDoc `json:"services,omitempty"`
	Defect   bool         `json:"defect,omitempty"`
}

type serviceDoc struct {
	Channel uint8  `json:"channel"`
	Name    string `json:"name"`
}

// specProfiles maps the stack names DecodeSpec accepts to the vendor
// profile constructors. Strict stacks take no defects natively, so the
// wrappers graft them on — a custom target may pair any stack with any
// defect.
var specProfiles = map[string]func(btVersion, fingerprint string, vulns []VulnSpec) Profile{
	"bluedroid": func(bt, fp string, v []VulnSpec) Profile { return BlueDroidProfile(bt, fp, v...) },
	"bluez":     func(bt, fp string, v []VulnSpec) Profile { return BlueZProfile(bt, fp, v...) },
	"ios": func(bt, fp string, v []VulnSpec) Profile {
		p := IOSProfile(bt)
		p.Fingerprint, p.Vulns = fp, v
		return p
	},
	"rtkit": func(bt, fp string, v []VulnSpec) Profile {
		p := RTKitProfile(bt, v...)
		p.Fingerprint = fp
		return p
	},
	"btw": func(bt, fp string, v []VulnSpec) Profile {
		p := BTWProfile(bt)
		p.Fingerprint, p.Vulns = fp, v
		return p
	},
	"windows": func(bt, fp string, v []VulnSpec) Profile {
		p := WindowsProfile(bt)
		p.Fingerprint, p.Vulns = fp, v
		return p
	},
}

// specDefects maps the defect names DecodeSpec accepts to the four
// injected defects of the paper's findings, calibrated as the catalog
// ships them.
var specDefects = map[string]func() VulnSpec{
	"ccb-null-deref":     func() VulnSpec { return BlueDroidCCBNullDeref(0x40, 15, false) },
	"create-deref":       func() VulnSpec { return SamsungCreateChannelDeref(0x0D, 8, 0x00FF) },
	"psm-service-kill":   func() VulnSpec { return RTKitPSMServiceKill(0x09, 0x001F) },
	"option-overrun-gpf": func() VulnSpec { return BlueZOptionOverrunGPF(0x40, 0x0140, 8, sm.StateWaitConfigRsp) },
}

// sortedNames renders a name set for error messages.
func sortedNames[V any](m map[string]V) string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// DecodeSpec parses the JSON form of a target spec. Malformed JSON and
// type mismatches are reported with the line and column they occur at;
// semantic errors name the offending field and the accepted values.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc specDoc
	if err := dec.Decode(&doc); err != nil {
		return Spec{}, locateSpecError(data, err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return Spec{}, fmt.Errorf("device spec: trailing data after the spec object")
	}

	if doc.Name == "" {
		return Spec{}, fmt.Errorf("device spec: missing required field \"name\"")
	}
	if doc.Addr == "" {
		return Spec{}, fmt.Errorf("device spec %q: missing required field \"addr\"", doc.Name)
	}
	addr, err := radio.ParseBDAddr(doc.Addr)
	if err != nil {
		return Spec{}, fmt.Errorf("device spec %q: field \"addr\": %w", doc.Name, err)
	}

	var vulns []VulnSpec
	var firstClass CrashClass
	for _, name := range doc.Defects {
		build, ok := specDefects[name]
		if !ok {
			return Spec{}, fmt.Errorf("device spec %q: unknown defect %q (have %s)",
				doc.Name, name, sortedNames(specDefects))
		}
		v := build()
		if firstClass == 0 {
			firstClass = v.Class
		}
		vulns = append(vulns, v)
	}

	build, ok := specProfiles[strings.ToLower(doc.Profile.Stack)]
	if !ok {
		return Spec{}, fmt.Errorf("device spec %q: unknown profile stack %q (have %s)",
			doc.Name, doc.Profile.Stack, sortedNames(specProfiles))
	}
	cfg := Config{
		Addr:          addr,
		Name:          doc.Name,
		ClassOfDevice: doc.ClassOfDevice,
		Profile:       build(doc.Profile.BTVersion, doc.Profile.Fingerprint, vulns),
	}
	for _, p := range doc.Ports {
		cfg.Ports = append(cfg.Ports, ServicePort{
			PSM:             l2cap.PSM(p.PSM),
			Name:            p.Name,
			RequiresPairing: p.RequiresPairing,
		})
	}
	armed := len(vulns) > 0
	if doc.RFCOMM != nil {
		for _, s := range doc.RFCOMM.Services {
			cfg.RFCOMMServices = append(cfg.RFCOMMServices, rfcomm.Service{
				Channel: s.Channel,
				Name:    s.Name,
			})
		}
		if doc.RFCOMM.Defect {
			if len(cfg.RFCOMMServices) == 0 {
				return Spec{}, fmt.Errorf("device spec %q: \"rfcomm.defect\" set without \"rfcomm.services\"", doc.Name)
			}
			cfg.RFCOMMDefect = rfcomm.ReservedDLCIDefect()
			armed = true
			if firstClass == 0 {
				firstClass = ClassDoS
			}
		}
	}

	spec := Spec{Name: doc.Name, Config: cfg, ExpectVuln: armed}
	if doc.ExpectVuln != nil {
		spec.ExpectVuln = *doc.ExpectVuln
	}
	switch strings.ToLower(doc.ExpectClass) {
	case "":
		spec.ExpectClass = firstClass
	case "dos":
		spec.ExpectClass = ClassDoS
	case "crash":
		spec.ExpectClass = ClassCrash
	default:
		return Spec{}, fmt.Errorf("device spec %q: unknown expectClass %q (have DoS, Crash)",
			doc.Name, doc.ExpectClass)
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// locateSpecError augments a json decoding error with the 1-based line
// and column of its byte offset, when the error carries one.
func locateSpecError(data []byte, err error) error {
	var offset int64 = -1
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		offset = syn.Offset
	case errors.As(err, &typ):
		offset = typ.Offset
	}
	if offset < 0 || offset > int64(len(data)) {
		return fmt.Errorf("device spec: %w", err)
	}
	line, col := 1, 1
	for _, b := range data[:offset] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("device spec: line %d:%d: %w", line, col, err)
}
