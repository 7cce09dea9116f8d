package corpus

import (
	"fmt"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/core"
	"l2fuzz/internal/testbed"
	"l2fuzz/internal/triage"
)

// kindRFCOMM matches the fleet's RFCOMM kind string without importing
// the fleet (which imports this package).
const kindRFCOMM = "RFCOMM"

// ReplayConfig parameterises a replay.
type ReplayConfig struct {
	// Spec rebuilds the target of the entries whose trace target is
	// Spec.Name, in place of what the entry would resolve to. Entries of
	// other targets resolve as without it: a catalog ID as that catalog
	// device with its defects armed, a custom target from the spec the
	// entry embeds. Nil resolves every entry on its own.
	Spec *device.Spec
}

// ReplayResult is the outcome of re-driving a trace on a fresh rig.
type ReplayResult struct {
	// Reproduced reports the replay crashed the target with the same
	// error class the entry records.
	Reproduced bool
	// Signature is the observed (state, port, class) triple: the
	// entry's state and port under test with the replay's observed
	// error class. Equal to the entry's signature when Reproduced.
	Signature core.Signature
	// Crashed reports whether the replayed target ended up crashed at
	// all (a crash of a different class is not a reproduction).
	Crashed bool
	// Dump is the replayed device's crash artefact, "" when none.
	Dump string
	// RootCause correlates the entry's finding with the freshly
	// reproduced device dump: the triage report a minimal witness is
	// for.
	RootCause triage.Report
}

// resolveSpec picks the rig target, in precedence order: the explicit
// spec when it names the trace's target, the trace's target name looked
// up in the catalog, the spec the entry embeds.
func resolveSpec(e Entry, cfg ReplayConfig) (device.Spec, error) {
	target := e.Trace.Target
	switch {
	case cfg.Spec != nil && cfg.Spec.Name == target:
		return *cfg.Spec, nil
	case device.IsCatalogID(target):
		return device.CatalogSpec(target, false)
	case e.TargetSpec != nil:
		if e.TargetSpec.Name != target {
			return device.Spec{}, fmt.Errorf("corpus: embedded spec %q does not name the trace target %q", e.TargetSpec.Name, target)
		}
		return *e.TargetSpec, nil
	}
	return device.Spec{}, fmt.Errorf("corpus: target %q is not a catalog ID and the entry embeds no spec; pass its spec explicitly", target)
}

// Replay re-drives an entry's recorded trace against a fresh testbed
// rig and verifies the crash still fires. The outcome is classified
// exactly as the original detection classified it — core.ProbeLiveness
// for the L2CAP kinds, the mux-liveness split for RFCOMM — and the
// fresh device dump is fed to triage for the root-cause report. The rig
// is a replay rig (testbed.Options.Replay): it carries no sniffer, so
// re-driving a trace allocates next to nothing per op.
func Replay(e Entry, cfg ReplayConfig) (*ReplayResult, error) {
	return replay(e, cfg, 0, 0)
}

// replay is Replay of the trace without its ops [from, to): a
// minimization probe replays its candidate in place of a copy.
func replay(e Entry, cfg ReplayConfig, from, to int) (*ReplayResult, error) {
	if e.Trace.Truncated {
		return nil, fmt.Errorf("corpus: trace for %v is truncated and cannot replay faithfully", e.Signature)
	}
	if len(e.Trace.Ops)-(to-from) == 0 {
		return nil, fmt.Errorf("corpus: entry %v carries no recorded trace", e.Signature)
	}
	spec, err := resolveSpec(e, cfg)
	if err != nil {
		return nil, err
	}
	rig, err := testbed.New(spec, testbed.Options{RFCOMM: e.Kind == kindRFCOMM, Replay: true})
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	addr := rig.Device.Address()
	for _, ops := range [2]Ops{e.Trace.Ops[:from], e.Trace.Ops[to:]} {
		for _, op := range ops {
			switch op.Kind {
			case host.TraceConnect:
				// A page the original run made against an already-dead
				// target fails here too; the failure itself is the point.
				_ = rig.Client.Connect(addr)
			case host.TraceDisconnect:
				rig.Client.Disconnect(addr)
			case host.TraceSend:
				_ = rig.Client.SendRaw(addr, op.Data)
				rig.Client.Drain()
			default:
				return nil, fmt.Errorf("corpus: unknown trace op %q", op.Kind)
			}
		}
	}

	res := &ReplayResult{Crashed: rig.Device.Crashed()}
	observed := core.ErrNone
	if e.Kind == kindRFCOMM {
		// The RFCOMM detector's split: the mux died under a live L2CAP
		// layer (Aborted) or took the whole stack with it (Reset).
		if res.Crashed {
			if rig.Client.Ping(addr) == nil {
				observed = core.ErrConnectionAborted
			} else {
				observed = core.ErrConnectionReset
			}
		}
	} else {
		observed = core.ProbeLiveness(rig.Client, addr)
	}
	res.Signature = core.Signature{State: e.Signature.State, PSM: e.Signature.PSM, Class: observed}
	res.Reproduced = res.Crashed && observed == e.Signature.Class
	if dump := rig.Device.CrashDump(); dump != nil {
		res.Dump = dump.Render()
	}
	res.RootCause = triage.Analyze(e.Finding, rig.Device.CrashDump())
	return res, nil
}
