// Package sdpfuzz points L2Fuzz's malformation methodology at the SDP
// layer: the service-record server every Bluetooth device mounts on PSM
// 0x0001 and every fuzzer in this reproduction scans through — but
// which no fuzzer kind attacked until now.
//
// SDP has no connection state machine to guide, so the transfer keeps
// the field-aware half of the recipe: requests are built from the
// protocol's own grammar — PDU header (ID, transaction, declared
// parameter length) over a DataElement stream — and malformed one
// grammar production at a time, instead of being random bytes:
//
//   - header length lies: the declared parameter length overruns or
//     undershoots the bytes actually sent (the overrun is the classic
//     parser overread — reading the declared length walks past the
//     receive buffer);
//   - PDU IDs outside the protocol;
//   - truncated DataElement sequences whose header is internally
//     consistent, so the damage is only visible to the element parser;
//   - reserved element descriptors (size index 7) the specification
//     never assigns;
//   - plain garbage, as a floor to compare the grammar-aware shapes
//     against.
//
// Detection mirrors the paper's liveness probing: every few requests a
// valid ServiceSearchAttributeReq must still draw a response. A server
// that answers error responses is healthy — only silence (or a dead
// link) is a finding.
package sdpfuzz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sdp"
)

// Config parameterises a run. A zero budget means its default; a
// negative one fails Run.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// MaxPDUs caps the whole run; zero means 50,000.
	MaxPDUs int
}

// The run's L2Fuzz-flavoured constants.
const (
	// defaultMaxPDUs is the budget of a run whose Config.MaxPDUs is zero.
	defaultMaxPDUs = 50_000
	// maxGarbage bounds generated garbage parameter payloads.
	maxGarbage = 16
	// probeEvery runs the valid-request liveness probe after every
	// probeEvery malformed requests.
	probeEvery = 8
	// thinkTime is charged to the simulated clock per request.
	thinkTime = 450 * time.Microsecond
)

// Report is the outcome of one run.
type Report struct {
	// Found reports whether the SDP server died.
	Found bool
	// PDUsSent counts transmitted requests, probes included.
	PDUsSent int
	// Elapsed is the simulated run time.
	Elapsed time.Duration
	// LastPDU describes the request sent just before detection.
	LastPDU string
	// Trace is the recorded client operation sequence through detection,
	// populated when Found and a host.TraceRecorder is attached to the
	// client. The snapshot is taken at detection, so a replayed trace
	// ends on the killing request.
	Trace []host.TraceOp
	// TraceTruncated reports the trace outgrew the recorder's limit.
	TraceTruncated bool
}

// ErrNoSDP indicates the target's SDP port could not be opened.
var ErrNoSDP = errors.New("sdpfuzz: target has no reachable SDP port")

// Fuzzer drives DataElement/PDU malformation against one target.
type Fuzzer struct {
	cl  *host.Client
	cfg Config
	rng *rand.Rand

	target radio.BDAddr
	local  l2cap.CID
	remote l2cap.CID
	sent   int
	txn    uint16
}

// New builds a fuzzer over a tester client.
func New(cl *host.Client, cfg Config) *Fuzzer {
	if cfg.MaxPDUs == 0 {
		cfg.MaxPDUs = defaultMaxPDUs
	}
	return &Fuzzer{cl: cl, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Run fuzzes the target's SDP server until it dies or the request
// budget is exhausted.
func (f *Fuzzer) Run(target radio.BDAddr) (*Report, error) {
	if f.cfg.MaxPDUs < 0 {
		return nil, fmt.Errorf("sdpfuzz: negative MaxPDUs %d", f.cfg.MaxPDUs)
	}
	f.target = target
	start := f.cl.Clock().Now()
	if err := f.cl.Connect(target); err != nil {
		return nil, fmt.Errorf("sdpfuzz: %w", err)
	}
	local, remote, err := f.cl.OpenChannel(target, l2cap.PSMSDP)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSDP, err)
	}
	f.local, f.remote = local, remote

	report := &Report{}
	finish := func(found bool, lastPDU string) (*Report, error) {
		report.Found = found
		report.LastPDU = lastPDU
		report.PDUsSent = f.sent
		report.Elapsed = f.cl.Clock().Now() - start
		if found {
			if rec := f.cl.Recorder(); rec != nil {
				report.Trace, report.TraceTruncated = rec.Snapshot()
			}
		}
		return report, nil
	}

	for f.sent < f.cfg.MaxPDUs {
		raw, m := f.mutate()
		if err := f.send(raw); err != nil {
			// The link died under us: the server's death dropped the
			// whole service (DoS class), not just the SDP channel.
			return finish(true, m.String())
		}
		if f.sent%probeEvery == 0 {
			if !f.probe() {
				return finish(true, m.String())
			}
		}
	}
	return finish(false, "")
}

// shape is one way mutate damages a request; the values follow the
// order of mutate's draw.
type shape uint8

const (
	shapeOverdeclare shape = iota
	shapeUnderdeclare
	shapeUnassignedID
	shapeTruncated
	shapeReservedDescriptor
	shapeGarbage
	numShapes
)

// mutation describes one malformed request: its shape and the one
// number the shape varies. Only a finding's report reads the text, so
// String formats it on demand instead of every request paying for it.
type mutation struct {
	shape shape
	n     int // declared length, PDU ID, truncated or garbage length
	extra int // the overrun, for shapeOverdeclare
}

func (m mutation) String() string {
	switch m.shape {
	case shapeOverdeclare:
		return fmt.Sprintf("header overdeclares %d parameter bytes (+%d)", m.n, m.extra)
	case shapeUnderdeclare:
		return fmt.Sprintf("header underdeclares %d parameter bytes", m.n)
	case shapeUnassignedID:
		return fmt.Sprintf("unassigned PDU ID 0x%02X", m.n)
	case shapeTruncated:
		return fmt.Sprintf("DataElement stream truncated to %d bytes", m.n)
	case shapeReservedDescriptor:
		return "reserved element descriptor (size index 7)"
	default:
		return fmt.Sprintf("%d garbage parameter bytes", m.n)
	}
}

// mutate builds one malformed request: a grammar production of the SDP
// wire format damaged in one deliberate way.
func (f *Fuzzer) mutate() ([]byte, mutation) {
	f.txn++
	switch s := shape(f.rng.Intn(int(numShapes))); s {
	case shapeOverdeclare:
		// Declared-length overrun: a valid request whose header claims
		// more parameter bytes than follow.
		raw := sdp.NewServiceSearchAttributeReq(f.txn).Marshal()
		extra := 1 + f.rng.Intn(64)
		declared := len(raw) - 5 + extra
		binary.BigEndian.PutUint16(raw[3:5], uint16(declared))
		return raw, mutation{shape: s, n: declared, extra: extra}
	case shapeUnderdeclare:
		// Declared-length undershoot: the inverse lie. A robust parser
		// rejects the mismatch with an error response.
		raw := sdp.NewServiceSearchAttributeReq(f.txn).Marshal()
		declared := f.rng.Intn(len(raw) - 5)
		binary.BigEndian.PutUint16(raw[3:5], uint16(declared))
		return raw, mutation{shape: s, n: declared}
	case shapeUnassignedID:
		// Unassigned PDU ID with plausible parameters.
		raw := sdp.NewServiceSearchAttributeReq(f.txn).Marshal()
		raw[0] = byte(0x08 + f.rng.Intn(0xF8))
		return raw, mutation{shape: s, n: int(raw[0])}
	case shapeTruncated:
		// Truncated DataElement stream: the header re-declares the cut
		// length, so only the element parser sees the damage.
		full := sdp.NewServiceSearchAttributeReq(f.txn).Marshal()
		cut := 5 + f.rng.Intn(len(full)-5)
		raw := append([]byte(nil), full[:cut]...)
		binary.BigEndian.PutUint16(raw[3:5], uint16(cut-5))
		return raw, mutation{shape: s, n: cut - 5}
	case shapeReservedDescriptor:
		// Reserved element descriptor: size index 7 exists in no element
		// type the specification defines.
		params := []byte{byte(sdp.TypeSequence)<<3 | 7, 0xFF, 0xFF}
		return sdp.PDU{ID: sdp.PDUServiceSearchAttributeReq, TxnID: f.txn, Params: params}.Marshal(),
			mutation{shape: s}
	default:
		// Garbage parameters: the floor the grammar-aware shapes are
		// measured against.
		params := make([]byte, f.rng.Intn(maxGarbage+1))
		for i := range params {
			params[i] = byte(f.rng.Intn(256))
		}
		return sdp.PDU{ID: sdp.PDUServiceSearchAttributeReq, TxnID: f.txn, Params: params}.Marshal(),
			mutation{shape: shapeGarbage, n: len(params)}
	}
}

// send transmits one request over the SDP channel.
func (f *Fuzzer) send(raw []byte) error {
	err := f.cl.Send(f.target, l2cap.NewPacket(f.remote, raw))
	f.cl.Clock().Advance(thinkTime)
	f.sent++
	f.cl.Drain()
	return err
}

// probe sends a valid ServiceSearchAttributeReq and reports whether any
// response came back on the SDP channel: the liveness check. An error
// response still counts as alive — a healthy server rejects malformed
// requests; only a dead one goes silent.
func (f *Fuzzer) probe() bool {
	f.cl.Drain()
	f.txn++
	raw := sdp.NewServiceSearchAttributeReq(f.txn).Marshal()
	if err := f.cl.Send(f.target, l2cap.NewPacket(f.remote, raw)); err != nil {
		return false
	}
	f.cl.Clock().Advance(thinkTime)
	f.sent++
	for _, pkt := range f.cl.Drain() {
		if pkt.ChannelID == f.local {
			return true
		}
	}
	return false
}
