package core

import (
	"errors"
	"fmt"
	"time"

	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sm"
)

// ErrorClass is the connection-error taxonomy of the vulnerability-
// detecting phase (§III-E).
type ErrorClass uint8

const (
	// ErrNone means the target is healthy.
	ErrNone ErrorClass = iota
	// ErrConnectionFailed means the Bluetooth service has shut down —
	// the DoS signature.
	ErrConnectionFailed
	// ErrConnectionAborted means the connection died mid-conversation.
	ErrConnectionAborted
	// ErrConnectionReset means the target dropped off entirely.
	ErrConnectionReset
	// ErrConnectionRefused means the target refuses new connections.
	ErrConnectionRefused
	// ErrTimeout means the target stopped answering.
	ErrTimeout
)

func (e ErrorClass) String() string {
	switch e {
	case ErrNone:
		return "None"
	case ErrConnectionFailed:
		return "Connection Failed"
	case ErrConnectionAborted:
		return "Connection Aborted"
	case ErrConnectionReset:
		return "Connection Reset"
	case ErrConnectionRefused:
		return "Connection Refused"
	case ErrTimeout:
		return "Timeout"
	default:
		return fmt.Sprintf("ErrorClass(%d)", uint8(e))
	}
}

// Severity maps the error class to the paper's finding description:
// Connection Failed is a DoS (service shut down); the others indicate a
// crash.
func (e ErrorClass) Severity() string {
	switch e {
	case ErrConnectionFailed:
		return "DoS"
	case ErrNone:
		return "N/A"
	default:
		return "Crash"
	}
}

// Finding is one detected vulnerability.
type Finding struct {
	// Time is the simulated detection time.
	Time time.Duration
	// Error is the classified connection error.
	Error ErrorClass
	// State is the L2CAP state under test when the target died.
	State sm.State
	// PSM is the service port under test.
	PSM l2cap.PSM
	// LastMutation describes the packet sent immediately before death.
	LastMutation Mutation
	// Trace is the recorded client operation sequence from the start of
	// the current trace epoch through detection, populated when a
	// host.TraceRecorder is attached to the fuzzing client. Replaying it
	// against a fresh rig reproduces the finding (internal/corpus). The
	// corpus stores the trace under its own schema, so it is excluded
	// from the finding's JSON form. When a farm folds the job, its
	// corpus store takes the trace or nothing keeps it: the findings in
	// a farm's report and events carry none.
	Trace []host.TraceOp `json:"-"`
	// TraceTruncated reports the trace outgrew the recorder's limit and
	// therefore cannot replay faithfully.
	TraceTruncated bool `json:"-"`
}

// Severity is the paper's Description column value.
func (f Finding) Severity() string { return f.Error.Severity() }

// Signature is the black-box identity of a finding: the
// (state, port, error-class) triple every de-duplicating layer keys by —
// the campaign runner within one device, the fleet across devices and
// fuzzer kinds, and the persistent corpus across farm runs. Defining it
// once here keeps corpus keys and report keys from drifting apart.
type Signature struct {
	State sm.State   `json:"state"`
	PSM   l2cap.PSM  `json:"psm"`
	Class ErrorClass `json:"class"`
}

func (s Signature) String() string {
	return fmt.Sprintf("%v in %v on %v", s.Class, s.State, s.PSM)
}

// Signature returns the finding's de-duplication key.
func (f Finding) Signature() Signature {
	return Signature{State: f.State, PSM: f.PSM, Class: f.Error}
}

// pingRetries is how many echo attempts the probe makes before declaring
// a timeout: L2CAP signaling retransmits on its RTX timer, so a single
// lost frame must not become a finding.
const pingRetries = 3

// ProbeLiveness classifies the target's health after a suspicious event:
// the ping test (with retransmission) plus re-page differential
// diagnosis. Exported because trace replay (the corpus subsystem) must
// classify a replayed crash exactly as the original detection did.
func ProbeLiveness(cl *host.Client, addr radio.BDAddr) ErrorClass {
	var err error
	for attempt := 0; attempt < pingRetries; attempt++ {
		if err = cl.Ping(addr); err == nil {
			return ErrNone
		}
		if !errors.Is(err, host.ErrNoResponse) {
			break // the link itself died; no point retransmitting
		}
	}
	if errors.Is(err, host.ErrNoResponse) {
		// Link is up but the peer stayed silent through every retry.
		return ErrTimeout
	}
	// The link is gone. Differential diagnosis via a fresh page attempt.
	cl.Disconnect(addr)
	switch pageErr := cl.Connect(addr); {
	case pageErr == nil:
		// Link re-established; if ping now works the hiccup was transient.
		if cl.Ping(addr) == nil {
			return ErrNone
		}
		return ErrConnectionAborted
	case errors.Is(pageErr, radio.ErrNotConnectable):
		// The device is on the air but its Bluetooth service refuses
		// pages: the service was shut down.
		return ErrConnectionFailed
	case errors.Is(pageErr, radio.ErrUnknownAddress):
		// The device vanished entirely.
		return ErrConnectionReset
	default:
		return ErrConnectionRefused
	}
}
