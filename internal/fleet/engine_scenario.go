package fleet

import (
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/sm"
	"l2fuzz/internal/core"
	"l2fuzz/internal/sdpfuzz"
	"l2fuzz/internal/smfuzz"
	"l2fuzz/internal/testbed"
)

// sdpEngine runs DataElement/PDU malformation against the target's SDP
// server. An SDP death maps into the shared signature space as an
// Open-state finding on the SDP port, classified by the same liveness
// probe a corpus replay of the trace will use — so a recorded finding
// reproduces with a matching error class.
type sdpEngine struct{}

func (sdpEngine) Kind() Kind                          { return KindSDP }
func (sdpEngine) ProducesFindings() bool              { return true }
func (sdpEngine) NeedsRFCOMM() bool                   { return false }
func (sdpEngine) TraceBudget(cfg Config, job Job) int { return job.MaxPackets }

func (sdpEngine) Run(cfg Config, r *testbed.Rig, job Job, v Variant, res *JobResult) {
	fcfg := sdpfuzz.Config{Seed: job.Seed, MaxPDUs: job.MaxPackets}
	report, err := sdpfuzz.New(r.Client, fcfg).Run(r.Device.Address())
	if err != nil {
		res.Err = err
		return
	}
	res.PacketsSent = report.PDUsSent
	res.Elapsed = report.Elapsed
	if report.Found {
		class := core.ProbeLiveness(r.Client, r.Device.Address())
		if class == core.ErrNone {
			// The server went silent but the stack survived: the SDP
			// analogue of the RFCOMM layer-isolation case.
			class = core.ErrConnectionAborted
		}
		res.Findings = []Occurrence{{
			Finding: core.Finding{
				Time:           report.Elapsed,
				Error:          class,
				State:          sm.StateOpen,
				PSM:            l2cap.PSMSDP,
				Trace:          report.Trace,
				TraceTruncated: report.TraceTruncated,
			},
			Count: 1,
			Dump:  crashDump(r.Device),
		}}
	}
}

// smEngine runs the model-guided state-machine walk: the transition
// table itself as the search space. The finding keeps the shadow
// machine's state at detection — the walk knows exactly where in the
// machine the target died, unlike the packet-schedule engines which
// infer it.
type smEngine struct{}

func (smEngine) Kind() Kind                          { return KindSM }
func (smEngine) ProducesFindings() bool              { return true }
func (smEngine) NeedsRFCOMM() bool                   { return false }
func (smEngine) TraceBudget(cfg Config, job Job) int { return job.MaxPackets }

func (smEngine) Run(cfg Config, r *testbed.Rig, job Job, v Variant, res *JobResult) {
	fcfg := smfuzz.Config{Seed: job.Seed, MaxPackets: job.MaxPackets}
	report, err := smfuzz.New(r.Client, fcfg).Run(r.Device.Address())
	if err != nil {
		res.Err = err
		return
	}
	res.PacketsSent = report.PacketsSent
	res.Elapsed = report.Elapsed
	if report.Found {
		class := core.ProbeLiveness(r.Client, r.Device.Address())
		if class == core.ErrNone {
			class = core.ErrConnectionReset
		}
		res.Findings = []Occurrence{{
			Finding: core.Finding{
				Time:           report.Elapsed,
				Error:          class,
				State:          report.FinalState,
				PSM:            report.PSM,
				Trace:          report.Trace,
				TraceTruncated: report.TraceTruncated,
			},
			Count: 1,
			Dump:  crashDump(r.Device),
		}}
	}
}
