// Package testbed builds the standard single-target measurement rig —
// a fresh radio medium, one target device, a tester client and a
// Wireshark-style trace sniffer. Farm jobs, the evaluation harness's
// cells (which run the same fleet engines) and corpus replays all build
// their rigs here, so they cannot drift apart in how they wire a
// testbed. A replay rig measures nothing and carries no sniffer.
//
// The target is a first-class device.Spec, not a catalog ID: the
// catalog's eight Table V devices come from device.CatalogSpec, and any
// other validated Spec — custom port maps, vendor profiles, injected
// defects — builds the same rig through the same path.
package testbed

import (
	"fmt"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/rfcomm"
	"l2fuzz/internal/bt/sdp"
	"l2fuzz/internal/metrics"
)

// TesterAddr is the tester endpoint's fixed address: the analogue of
// the paper's Ubuntu machine with a Class-1 dongle.
var TesterAddr = radio.MustBDAddr("00:1B:DC:F0:00:01")

// Rig is one measurement setup: a fresh medium, a target device, a
// tester client and a sniffer.
type Rig struct {
	Medium *radio.Medium
	Device *device.Device
	Client *host.Client
	// Sniffer is nil on a rig built with Options.Replay.
	Sniffer *metrics.Sniffer
	// Recorder is the client's trace recorder when Options.Record was
	// set, nil otherwise.
	Recorder *host.TraceRecorder
}

// Options selects the rig variant.
type Options struct {
	// DisableVulns builds the target measurement-grade: its injected
	// defects disabled, as the paper's 100,000-packet measurements
	// require the device to survive.
	DisableVulns bool
	// RFCOMM prepares the target for RFCOMM fuzzing: the RFCOMM port is
	// opened pairing-free, the standard serial services are mounted when
	// the spec brings none of its own, and — unless vulns are disabled —
	// specs expected to be vulnerable also carry the reserved-DLCI mux
	// defect.
	RFCOMM bool
	// Record attaches a host.TraceRecorder to the rig's client, so every
	// page, link drop and transmitted frame is captured as a replayable
	// operation sequence (the corpus subsystem's repro traces).
	Record bool
	// RecordLimit caps the recorded operation count when Record is set;
	// zero means host.DefaultTraceLimit. Outgrowing the limit marks the
	// trace truncated rather than dropping its head, because a headless
	// trace could not replay from a fresh rig.
	RecordLimit int
	// Replay builds the rig to re-drive a recorded trace (corpus
	// replays): it measures nothing, so it carries no sniffer and
	// Rig.Sniffer is nil. A sniffer records two figure-series points per
	// packet, which would be all a replay allocates.
	Replay bool
}

// New builds a rig around one target spec.
func New(spec device.Spec, opts Options) (*Rig, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	m := radio.NewMedium(nil, radio.DefaultTiming())
	dev, err := device.New(m, DeviceConfig(spec, opts))
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	cl, err := host.NewClient(m, TesterAddr, "test-machine")
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	rig := &Rig{Medium: m, Device: dev, Client: cl}
	if !opts.Replay {
		rig.Sniffer = metrics.NewSniffer(m, TesterAddr)
	}
	if opts.Record {
		rig.Recorder = host.NewTraceRecorder(opts.RecordLimit)
		cl.SetRecorder(rig.Recorder)
	}
	return rig, nil
}

// DeviceConfig is the device configuration a rig builds for spec under
// opts: the vuln switch and RFCOMM preparation applied, and the defects
// an ExpectVuln spec carries armed. Anything that instantiates a target
// outside a rig goes through it too, so it meets the same device.
func DeviceConfig(spec device.Spec, opts Options) device.Config {
	dcfg := spec.Config
	if opts.DisableVulns {
		dcfg.DisableVulns = true
	}
	if opts.RFCOMM {
		dcfg.Ports = rfcommPorts(dcfg.Ports)
		if len(dcfg.RFCOMMServices) == 0 {
			dcfg.RFCOMMServices = []rfcomm.Service{
				{Channel: 1, Name: "Serial Port Profile"},
				{Channel: 2, Name: "Hands-Free"},
			}
		}
		if spec.ExpectVuln && !dcfg.DisableVulns && dcfg.RFCOMMDefect == nil {
			dcfg.RFCOMMDefect = rfcomm.ReservedDLCIDefect()
		}
	}
	// Specs expected to be vulnerable also carry an SDP parser defect.
	// Unlike the RFCOMM defect there is no opt-in rig variant: the
	// defect only fires on PDUs whose declared parameter length overruns
	// the payload, which valid service discovery (every fuzzer's scan
	// phase) never produces — and corpus replays of SDP findings need
	// the same arming without engine-specific options.
	if spec.ExpectVuln && !dcfg.DisableVulns && dcfg.SDPDefect == nil {
		dcfg.SDPDefect = sdp.OverreadDefect()
	}
	return dcfg
}

// rfcommPorts rewrites a port list so the RFCOMM port exists and is
// reachable without pairing: an existing port is made pairing-free in
// place, a missing one is appended.
func rfcommPorts(ports []device.ServicePort) []device.ServicePort {
	out := append([]device.ServicePort(nil), ports...)
	for i, p := range out {
		if p.PSM == l2cap.PSMRFCOMM {
			out[i].RequiresPairing = false
			return out
		}
	}
	return append(out, device.ServicePort{PSM: l2cap.PSMRFCOMM, Name: "RFCOMM"})
}
