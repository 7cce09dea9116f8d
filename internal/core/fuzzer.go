package core

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sm"
)

// Report is the outcome of one L2Fuzz run against one target.
type Report struct {
	// Scan is the target-scanning result.
	Scan ScanReport
	// Found reports whether a vulnerability was detected.
	Found bool
	// Finding is the detected vulnerability when Found.
	Finding Finding
	// Elapsed is the simulated time from run start to detection (or to
	// budget exhaustion).
	Elapsed time.Duration
	// PacketsSent counts every packet the fuzzer transmitted, including
	// transition and probe traffic.
	PacketsSent int
	// MalformedSent counts the test packets whose mutation made them
	// malformed.
	MalformedSent int
	// Mutations counts the test packets the mutator generated.
	Mutations int
	// StatesTested lists the states whose setup succeeded at least once.
	StatesTested []sm.State
	// Cycles counts completed port sweeps.
	Cycles int
}

// Fuzzer is one L2Fuzz instance bound to a tester client.
type Fuzzer struct {
	cl     *host.Client
	cfg    Config
	rng    *rand.Rand
	mut    *Mutator
	target radio.BDAddr

	packetsSent   int
	malformedSent int
	mutationsDone int
	sincePing     int
	statesTested  map[sm.State]bool
	logw          io.Writer
}

// New builds a fuzzer over an existing tester client.
func New(cl *host.Client, cfg Config) *Fuzzer {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	maxGarbage := DefaultMaxGarbage
	if cfg.NoGarbage {
		maxGarbage = 0
	}
	mut := NewMutator(rng, maxGarbage)
	// Credit-negotiation fields draw from their own stream so the core
	// packet schedule is seed-for-seed identical with earlier versions.
	mut.SeedCreditStream(cfg.Seed)
	return &Fuzzer{
		cl:           cl,
		cfg:          cfg,
		rng:          rng,
		mut:          mut,
		statesTested: make(map[sm.State]bool),
		logw:         cfg.LogWriter,
	}
}

// Run executes the four phases against the target until a vulnerability
// is found or the packet budget is exhausted.
func (f *Fuzzer) Run(target radio.BDAddr) (*Report, error) {
	if f.cfg.MaxPackets < 0 {
		return nil, fmt.Errorf("core: negative MaxPackets %d", f.cfg.MaxPackets)
	}
	f.target = target
	start := f.cl.Clock().Now()

	scan, err := Scan(f.cl, target)
	if err != nil {
		return nil, fmt.Errorf("target scanning: %w", err)
	}
	f.logf("scan: target %v (%s) class=0x%06X, %d ports, %d exploitable",
		scan.Meta.Addr, scan.Meta.Name, scan.Meta.ClassOfDevice,
		len(scan.Ports), len(scan.ExploitablePSMs))

	report := &Report{Scan: scan}
	finish := func(found bool, finding Finding) (*Report, error) {
		report.Found = found
		report.Finding = finding
		report.Elapsed = f.cl.Clock().Now() - start
		report.PacketsSent = f.packetsSent
		report.MalformedSent = f.malformedSent
		report.Mutations = f.mutationsDone
		for _, s := range sm.AllStates() {
			if f.statesTested[s] {
				report.StatesTested = append(report.StatesTested, s)
			}
		}
		return report, nil
	}

	visits := schedule
	if f.cfg.NoStateGuiding {
		visits = stateless
	}
	for {
		for _, psm := range scan.ExploitablePSMs {
			for _, visit := range visits {
				if f.packetsSent >= f.cfg.MaxPackets {
					f.logf("budget exhausted after %d packets", f.packetsSent)
					return finish(false, Finding{})
				}
				ch, ok := visit.setup(f, psm)
				if !ok {
					// Setup failure can itself mean the target just died.
					if class := f.livenessIfSuspicious(); class != ErrNone {
						return finish(true, f.newFinding(class, visit.state, psm, Mutation{}))
					}
					continue
				}
				f.statesTested[visit.state] = true
				finding, found := f.fuzzState(visit.state, psm)
				f.closeChannel(ch)
				if found {
					return finish(true, finding)
				}
			}
			// Refresh the baseband link between ports: leaked channels on
			// the target die with the link, as on a real dongle re-plug.
			f.cl.Disconnect(target)
			if err := f.cl.Connect(target); err != nil {
				class := ProbeLiveness(f.cl, target)
				if class != ErrNone {
					return finish(true, f.newFinding(class, sm.StateClosed, psm, Mutation{}))
				}
			}
		}
		report.Cycles++
		f.logf("cycle %d complete (%d packets)", report.Cycles, f.packetsSent)
	}
}

// fuzzState fuzzes one state: for every valid command of its job,
// generate and send DefaultPacketsPerCommand mutated packets, probing
// liveness as it goes.
func (f *Fuzzer) fuzzState(state sm.State, psm l2cap.PSM) (Finding, bool) {
	for _, code := range f.commandsFor(state) {
		for j := 0; j < DefaultPacketsPerCommand; j++ {
			if f.packetsSent >= f.cfg.MaxPackets {
				return Finding{}, false
			}
			pkt, info, err := f.mut.Mutate(f.cl.NextID(), code)
			if err != nil {
				continue
			}
			f.mutationsDone++
			if f.cfg.MutateAllFields {
				pkt = f.scrambleAllFields(pkt)
			}
			sendErr := f.cl.Send(f.target, pkt)
			f.cl.Clock().Advance(DefaultThinkTime)
			f.packetsSent++
			f.sincePing++
			if info.IsMalformed() {
				f.malformedSent++
			}
			f.cl.Drain()

			needProbe := sendErr != nil || f.sincePing >= DefaultPingEvery
			if !needProbe {
				continue
			}
			f.sincePing = 0
			class := ProbeLiveness(f.cl, f.target)
			f.packetsSent++ // the echo probe is a transmitted packet
			if class == ErrNone {
				continue
			}
			f.logf("suspicious: %v in %v (psm=%v, packet=%v)", class, state, psm, info)
			return f.newFinding(class, state, psm, info), true
		}
	}
	return Finding{}, false
}

// livenessIfSuspicious probes only when the link looks unhealthy.
func (f *Fuzzer) livenessIfSuspicious() ErrorClass {
	if f.cl.Connected(f.target) {
		return ErrNone
	}
	return ProbeLiveness(f.cl, f.target)
}

func (f *Fuzzer) newFinding(class ErrorClass, state sm.State, psm l2cap.PSM, m Mutation) Finding {
	finding := Finding{
		Time:         f.cl.Clock().Now(),
		Error:        class,
		State:        state,
		PSM:          psm,
		LastMutation: m,
	}
	if rec := f.cl.Recorder(); rec != nil {
		finding.Trace, finding.TraceTruncated = rec.Snapshot()
	}
	f.logf("VULNERABILITY: %s (%s) in %v on %v", class, finding.Severity(), state, psm)
	return finding
}

// scrambleAllFields is the ablation mutation: corrupt 1-4 bytes anywhere
// in the signaling payload, including the dependent fields (code,
// identifier, lengths) that core field mutating deliberately protects.
func (f *Fuzzer) scrambleAllFields(pkt l2cap.Packet) l2cap.Packet {
	if len(pkt.Payload) == 0 {
		return pkt
	}
	payload := append([]byte(nil), pkt.Payload...)
	for i, n := 0, 1+f.rng.Intn(4); i < n; i++ {
		payload[f.rng.Intn(len(payload))] = byte(f.rng.Intn(256))
	}
	pkt.Payload = payload
	return pkt
}

// countSetupPackets charges transition traffic to the packet budget and
// pacing clock.
func (f *Fuzzer) countSetupPackets(n int) {
	f.packetsSent += n
	f.cl.Clock().Advance(time.Duration(n) * DefaultThinkTime)
}

func (f *Fuzzer) logf(format string, args ...any) {
	if f.logw == nil {
		return
	}
	fmt.Fprintf(f.logw, "[%12v] ", f.cl.Clock().Now())
	fmt.Fprintf(f.logw, format, args...)
	fmt.Fprintln(f.logw)
}
