// Package rfcommfuzz applies L2Fuzz's methodology one protocol layer up,
// implementing the extension the paper's §V sketches as future work:
// "the packet format of these protocols can be divided into core fields
// and other fields, thus we can apply the core field mutating technique
// ... the state guiding of L2Fuzz can lead users to test more states."
//
// The transfer is direct:
//
//   - state guiding: the RFCOMM multiplexer has its own session state
//     machine (closed → connecting → connected → disconnecting per DLC);
//     the fuzzer steers it with valid frames (SABM to the control
//     channel, SABM/DISC to service DLCs) and fuzzes the frames valid in
//     each state;
//   - core field mutating: the DLCI — RFCOMM's port-and-channel setting —
//     is the mutable core field and is swept across its whole 6-bit
//     space including the reserved values; the EA bits, length fields
//     and FCS are dependent fields kept correct (the codec computes
//     them); UIH payloads are application data left benign; a bounded
//     garbage tail rides beyond the FCS.
//
// Detection reuses the L2CAP machinery underneath: the multiplexer dying
// silences RFCOMM while the L2CAP echo still answers — or kills the
// whole Bluetooth service, which the standard ping test catches.
package rfcommfuzz

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/rfcomm"
)

// Config parameterises a run. A zero budget means its default; a
// negative one fails Run.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// MaxFrames caps the whole run; zero means 50,000.
	MaxFrames int
}

// The run's L2Fuzz-flavoured constants.
const (
	// defaultMaxFrames is the budget of a run whose Config.MaxFrames is zero.
	defaultMaxFrames = 50_000
	// framesPerState is the fuzz depth per DLC state.
	framesPerState = 64
	// maxGarbage bounds the tail appended beyond the FCS.
	maxGarbage = 8
	// thinkTime is charged to the simulated clock per frame.
	thinkTime = 450 * time.Microsecond
)

// Report is the outcome of one run.
type Report struct {
	// Found reports whether the RFCOMM layer died.
	Found bool
	// FramesSent counts transmitted RFCOMM frames.
	FramesSent int
	// Elapsed is the simulated run time.
	Elapsed time.Duration
	// L2CAPAlive reports whether the L2CAP layer still answered when the
	// RFCOMM layer died (distinguishes a mux death from a stack death).
	L2CAPAlive bool
	// LastFrame describes the frame sent just before detection.
	LastFrame string
	// Trace is the recorded client operation sequence through detection,
	// populated when Found and a host.TraceRecorder is attached to the
	// client. The snapshot is taken before the L2CAPAlive probe, so a
	// replayed trace ends on the killing frame.
	Trace []host.TraceOp
	// TraceTruncated reports the trace outgrew the recorder's limit.
	TraceTruncated bool
}

// ErrNoRFCOMM indicates the target exposes no pairing-free RFCOMM port.
var ErrNoRFCOMM = errors.New("rfcommfuzz: target has no reachable RFCOMM port")

// Fuzzer drives the RFCOMM extension methodology.
type Fuzzer struct {
	cl  *host.Client
	cfg Config
	rng *rand.Rand

	target radio.BDAddr
	local  l2cap.CID
	remote l2cap.CID
	sent   int
}

// New builds a fuzzer over a tester client.
func New(cl *host.Client, cfg Config) *Fuzzer {
	if cfg.MaxFrames == 0 {
		cfg.MaxFrames = defaultMaxFrames
	}
	return &Fuzzer{cl: cl, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Run fuzzes the target's RFCOMM layer until the multiplexer dies or the
// frame budget is exhausted.
func (f *Fuzzer) Run(target radio.BDAddr) (*Report, error) {
	if f.cfg.MaxFrames < 0 {
		return nil, fmt.Errorf("rfcommfuzz: negative MaxFrames %d", f.cfg.MaxFrames)
	}
	f.target = target
	start := f.cl.Clock().Now()
	if err := f.cl.Connect(target); err != nil {
		return nil, fmt.Errorf("rfcommfuzz: %w", err)
	}
	local, remote, err := f.cl.OpenChannel(target, l2cap.PSMRFCOMM)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoRFCOMM, err)
	}
	f.local, f.remote = local, remote

	report := &Report{}
	finish := func(found bool, lastFrame string) (*Report, error) {
		report.Found = found
		report.LastFrame = lastFrame
		report.FramesSent = f.sent
		report.Elapsed = f.cl.Clock().Now() - start
		if found {
			if rec := f.cl.Recorder(); rec != nil {
				report.Trace, report.TraceTruncated = rec.Snapshot()
			}
			report.L2CAPAlive = f.cl.Ping(target) == nil
		}
		return report, nil
	}

	for f.sent < f.cfg.MaxFrames {
		// State guiding, RFCOMM edition: establish the session (control
		// channel SABM), fuzz the connecting job, open a data DLC, fuzz
		// the connected job, tear down, fuzz the disconnecting job.
		if alive := f.validFrame(rfcomm.Frame{DLCI: 0, CommandResponse: true, Type: rfcomm.FrameSABM, PollFinal: true}); !alive {
			return finish(true, "session SABM unanswered")
		}
		for _, job := range []struct {
			name  string
			types []rfcomm.FrameType
		}{
			{name: "connecting", types: []rfcomm.FrameType{rfcomm.FrameSABM}},
			{name: "connected", types: []rfcomm.FrameType{rfcomm.FrameUIH, rfcomm.FrameSABM, rfcomm.FrameDISC}},
			{name: "disconnecting", types: []rfcomm.FrameType{rfcomm.FrameDISC, rfcomm.FrameDM}},
		} {
			for i := 0; i < framesPerState && f.sent < f.cfg.MaxFrames; i++ {
				frame := f.mutate(job.types)
				if err := f.send(frame); err != nil {
					return finish(true, describe(frame, job.name))
				}
				// Liveness: every few frames, the control channel must
				// still acknowledge a valid probe.
				if f.sent%8 == 0 {
					if alive := f.validFrame(rfcomm.Frame{DLCI: 0, CommandResponse: true, Type: rfcomm.FrameSABM, PollFinal: true}); !alive {
						return finish(true, describe(frame, job.name))
					}
				}
			}
		}
		// Fresh session per cycle.
		_ = f.send(rfcomm.Frame{DLCI: 0, CommandResponse: true, Type: rfcomm.FrameDISC, PollFinal: true})
		f.cl.Drain()
	}
	return finish(false, "")
}

// describe is the finding report's text for the frame sent last, in
// the named job. Only a finding formats it; the frame loop keeps the
// frame instead.
func describe(frame rfcomm.Frame, job string) string {
	return fmt.Sprintf("%v DLCI=%d tail=%dB in %s job", frame.Type, frame.DLCI, len(frame.Tail), job)
}

// mutate builds one core-field-mutated frame: DLCI across its whole
// space (including reserved values 62-63), dependent fields computed by
// the codec, benign payload, bounded garbage tail.
func (f *Fuzzer) mutate(types []rfcomm.FrameType) rfcomm.Frame {
	frame := rfcomm.Frame{
		DLCI:            uint8(f.rng.Intn(rfcomm.MaxDLCI + 1)),
		CommandResponse: true,
		Type:            types[f.rng.Intn(len(types))],
		PollFinal:       f.rng.Intn(2) == 0,
	}
	if frame.Type == rfcomm.FrameUIH {
		frame.Payload = []byte{0x00} // benign application data
	}
	if n := f.rng.Intn(maxGarbage + 1); n > 0 {
		tail := make([]byte, n)
		for i := range tail {
			tail[i] = byte(f.rng.Intn(256))
		}
		frame.Tail = tail
	}
	return frame
}

// send transmits one RFCOMM frame over the fuzzing channel.
func (f *Fuzzer) send(frame rfcomm.Frame) error {
	err := f.cl.Send(f.target, l2cap.NewPacket(f.remote, frame.Marshal()))
	f.cl.Clock().Advance(thinkTime)
	f.sent++
	f.cl.Drain()
	return err
}

// validFrame sends a valid frame and reports whether any RFCOMM response
// came back: the extension's liveness probe.
func (f *Fuzzer) validFrame(frame rfcomm.Frame) bool {
	f.cl.Drain()
	if err := f.cl.Send(f.target, l2cap.NewPacket(f.remote, frame.Marshal())); err != nil {
		return false
	}
	f.cl.Clock().Advance(thinkTime)
	f.sent++
	for _, pkt := range f.cl.Drain() {
		if pkt.ChannelID == f.local {
			if _, err := rfcomm.Unmarshal(pkt.Payload); err == nil {
				return true
			}
		}
	}
	return false
}
