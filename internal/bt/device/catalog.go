package device

import (
	"fmt"

	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sm"
)

// Class-of-device codes for the catalog.
const (
	codSmartphone uint32 = 0x5A020C
	codTablet     uint32 = 0x1A011C
	codEarphone   uint32 = 0x240404
	codLaptop     uint32 = 0x3E010C
)

// ports builds n generic service ports after the well-known ones, with a
// deterministic pairing mix: every third port requires pairing, SDP and
// the first port never do.
func ports(named []ServicePort, extra int) []ServicePort {
	out := append([]ServicePort(nil), named...)
	base := l2cap.PSMDynamicFirst
	for i := 0; i < extra; i++ {
		out = append(out, ServicePort{
			PSM:             base + l2cap.PSM(i*2), // dynamic PSMs are odd-LSB: 0x1001, 0x1003, ...
			Name:            fmt.Sprintf("vendor-service-%d", i+1),
			RequiresPairing: i%3 == 2,
		})
	}
	return out
}

// standardPhonePorts are the well-known profiles a phone exposes.
func standardPhonePorts() []ServicePort {
	return []ServicePort{
		{PSM: l2cap.PSMSDP, Name: "Service Discovery"},
		{PSM: l2cap.PSMRFCOMM, Name: "RFCOMM", RequiresPairing: true},
		{PSM: l2cap.PSMHIDControl, Name: "HID Control", RequiresPairing: true},
		{PSM: l2cap.PSMAVCTP, Name: "AVCTP"},
		{PSM: l2cap.PSMAVDTP, Name: "AVDTP"},
	}
}

// CatalogSpecs returns the eight Table V devices as target specs, in
// catalog order. The paper ID is the target name, and ExpectVuln and
// ExpectClass are the paper's Table VI findings. disableVulns builds
// measurement-grade devices that never crash (Table VII, Figures 8-10).
func CatalogSpecs(disableVulns bool) []Spec {
	specs := []Spec{
		{
			Name: "D1", ExpectVuln: true, ExpectClass: ClassDoS,
			Config: Config{
				Name:          "Nexus 7",
				Addr:          radio.MustBDAddr("F8:8F:CA:11:22:33"), // Google OUI
				ClassOfDevice: codTablet,
				Profile: BlueDroidProfile("4.0 + LE",
					"google/razor/flo:6.0.1/MOB30X/3036618:user/release-keys",
					BlueDroidCCBNullDeref(0x40, 15, false)),
				Ports: ports(standardPhonePorts(), 3),
			},
		},
		{
			Name: "D2", ExpectVuln: true, ExpectClass: ClassDoS,
			Config: Config{
				Name:          "Pixel 3",
				Addr:          radio.MustBDAddr("F8:8F:CA:44:55:66"),
				ClassOfDevice: codSmartphone,
				Profile: BlueDroidProfile("5.0 + LE",
					"google/blueline/blueline:11/RQ1D.210105.003/7005430:user/release-keys",
					BlueDroidCCBNullDeref(0x40, 15, false)),
				Ports: ports(standardPhonePorts(), 5),
			},
		},
		{
			Name: "D3", ExpectVuln: true, ExpectClass: ClassDoS,
			Config: Config{
				Name:          "Galaxy S7",
				Addr:          radio.MustBDAddr("8C:F5:A3:77:88:99"), // Samsung OUI
				ClassOfDevice: codSmartphone,
				Profile: BlueDroidProfile("4.2",
					"samsung/heroltexx/herolte:8.0.0/R16NW/G930LKLU1DRG3:user/release-keys",
					SamsungCreateChannelDeref(0x0D, 8, 0x00FF)),
				Ports: ports(standardPhonePorts(), 4),
			},
		},
		{
			Name: "D4",
			Config: Config{
				Name:          "iPhone 6S",
				Addr:          radio.MustBDAddr("F0:DB:E2:10:20:30"), // Apple OUI
				ClassOfDevice: codSmartphone,
				Profile:       IOSProfile("4.2"),
				Ports: ports([]ServicePort{
					{PSM: l2cap.PSMSDP, Name: "Service Discovery"},
					{PSM: l2cap.PSMAVCTP, Name: "AVCTP"},
					{PSM: l2cap.PSMAVDTP, Name: "AVDTP"},
				}, 4),
			},
		},
		{
			Name: "D5", ExpectVuln: true, ExpectClass: ClassCrash,
			Config: Config{
				Name:          "AirPods",
				Addr:          radio.MustBDAddr("F0:DB:E2:40:50:60"),
				ClassOfDevice: codEarphone,
				Profile:       RTKitProfile("4.2", RTKitPSMServiceKill(0x09, 0x001F)),
				// Six service ports, matching §IV-B's elapsed-time analysis.
				Ports: ports([]ServicePort{
					{PSM: l2cap.PSMSDP, Name: "Service Discovery"},
					{PSM: l2cap.PSMAVDTP, Name: "AVDTP"},
					{PSM: l2cap.PSMAVCTP, Name: "AVCTP"},
				}, 3),
			},
		},
		{
			Name: "D6",
			Config: Config{
				Name:          "Galaxy Buds+",
				Addr:          radio.MustBDAddr("8C:F5:A3:AA:BB:CC"),
				ClassOfDevice: codEarphone,
				Profile:       BTWProfile("5.0 + LE"),
				Ports: ports([]ServicePort{
					{PSM: l2cap.PSMSDP, Name: "Service Discovery"},
					{PSM: l2cap.PSMAVDTP, Name: "AVDTP"},
				}, 3),
			},
		},
		{
			Name: "D7",
			Config: Config{
				Name:          "LG Gram (Windows)",
				Addr:          radio.MustBDAddr("A8:92:2C:01:02:03"), // LG OUI
				ClassOfDevice: codLaptop,
				Profile:       WindowsProfile("5.0"),
				Ports:         ports(standardPhonePorts(), 5),
			},
		},
		{
			Name: "D8", ExpectVuln: true, ExpectClass: ClassCrash,
			Config: Config{
				Name:          "LG Gram (Ubuntu)",
				Addr:          radio.MustBDAddr("A8:92:2C:04:05:06"),
				ClassOfDevice: codLaptop,
				Profile: BlueZProfile("5.0",
					"bluez-5.48-0ubuntu3.4 linux-5.3.0-28-generic",
					BlueZOptionOverrunGPF(0x40, 0x0140, 8, sm.StateWaitConfigRsp)),
				// Thirteen service ports, matching §IV-B.
				Ports: ports(standardPhonePorts(), 8),
			},
		},
	}
	for i := range specs {
		specs[i].Config.DisableVulns = disableVulns
	}
	return specs
}
