// Package host provides the master-side L2CAP endpoint the fuzzers run
// on: the equivalent of the paper's Ubuntu test machine with its
// Billionton Class-1 dongle. It can page targets, exchange signaling
// commands, open and configure data channels, query SDP, and run the
// L2CAP echo ("ping") liveness probe the vulnerability-detecting phase
// uses.
//
// The simulation is synchronous: a peer's responses arrive during the
// Send call that provoked them. Callers therefore interact in rounds —
// send, then Drain the inbox. "No packets drained" after a probe is the
// simulation's equivalent of a response timeout.
package host

import (
	"errors"
	"fmt"
	"slices"

	"l2fuzz/internal/bt/hci"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sdp"
)

// Client errors.
var (
	// ErrNotConnected indicates no live link to the peer.
	ErrNotConnected = errors.New("host: not connected to peer")
	// ErrNoResponse indicates the peer stayed silent where a response was
	// required: the simulation's timeout.
	ErrNoResponse = errors.New("host: no response from peer (timeout)")
	// ErrChannelRefused indicates the peer refused a channel open.
	ErrChannelRefused = errors.New("host: channel refused")
)

// Client is the tester-side Bluetooth endpoint.
type Client struct {
	ctrl   *hci.Controller
	medium *radio.Medium

	// handles holds the live links, scanned linearly: a client pages
	// one target at a time, so a map would only add hashing to every
	// send.
	handles  []peerHandle
	nextID   uint8
	nextCID  l2cap.CID
	recorder *TraceRecorder

	// inbox accumulates delivered packets, whose payloads are copied
	// into slab; drained holds the batch handed out by the last Drain,
	// whose payloads live in drainedSlab. Drain swaps both pairs, so a
	// caller can iterate a drained batch while new responses land in the
	// other slab, and the slab of the batch before last is rewound and
	// refilled. The slabs belong to the client alone: the packet path
	// takes no lock and, once the slabs have grown to a round's traffic,
	// allocates nothing.
	inbox       []l2cap.Packet
	drained     []l2cap.Packet
	slab        []byte
	drainedSlab []byte

	// Reused scratch state for the steady-state send/decode path.
	txWire    []byte          // wire bytes of the frame being sent
	sigWire   []byte          // signaling payload built by SendCommand
	sigFrames []l2cap.Frame   // AppendSignals scratch in DrainCommands
	cmds      []l2cap.Command // DrainCommands result scratch
	dec       l2cap.Decoder
	echo      l2cap.EchoReq // Ping's reused request
}

// peerHandle is one live link: the peer and its connection handle.
type peerHandle struct {
	peer   radio.BDAddr
	handle hci.ConnHandle
}

// pingData is the constant Echo Request payload Ping sends ("ping").
var pingData = []byte{0x70, 0x69, 0x6E, 0x67}

// NewClient registers a tester endpoint on the medium.
func NewClient(m *radio.Medium, addr radio.BDAddr, name string) (*Client, error) {
	c := &Client{
		medium:  m,
		nextID:  1,
		nextCID: l2cap.CIDDynamicFirst,
	}
	ctrl, err := hci.NewController(m, hci.Config{
		Addr: addr, Name: name, Discoverable: true, Connectable: true,
	})
	if err != nil {
		return nil, fmt.Errorf("host client: %w", err)
	}
	ctrl.SetReceiver(func(_ hci.ConnHandle, _ radio.BDAddr, frame []byte) {
		// The frame is a borrow from the controller; the inbox retains
		// the payload past this callback, so copy it into the current
		// slab (rewound by the Drain after next). The payload's capacity
		// is clipped so an append through it cannot reach its
		// neighbours.
		pkt, err := l2cap.ParsePacket(frame)
		if err != nil {
			return
		}
		start := len(c.slab)
		c.slab = append(c.slab, pkt.Payload...)
		pkt.Payload = c.slab[start:len(c.slab):len(c.slab)]
		c.inbox = append(c.inbox, pkt)
	})
	c.ctrl = ctrl
	return c, nil
}

// Clock exposes the simulated clock (for pacing and timestamps).
func (c *Client) Clock() *radio.Clock { return c.medium.Clock() }

// Inquiry sweeps for discoverable devices.
func (c *Client) Inquiry() []radio.InquiryResult { return c.ctrl.Inquiry() }

// handle returns the connection handle of the live link to peer.
func (c *Client) handle(peer radio.BDAddr) (hci.ConnHandle, bool) {
	for _, ph := range c.handles {
		if ph.peer == peer {
			return ph.handle, true
		}
	}
	return 0, false
}

// Connect pages the peer if no link exists yet.
func (c *Client) Connect(peer radio.BDAddr) error {
	if _, ok := c.handle(peer); ok {
		return nil
	}
	h, err := c.ctrl.Connect(peer)
	if err != nil {
		return fmt.Errorf("connect %v: %w", peer, err)
	}
	c.handles = append(c.handles, peerHandle{peer: peer, handle: h})
	if c.recorder != nil {
		// Only a successful page changes peer-visible state; failed
		// attempts leave nothing for a replay to redo.
		c.recorder.record(opConnect, nil)
	}
	return nil
}

// Connected reports whether a live link to peer exists.
func (c *Client) Connected(peer radio.BDAddr) bool {
	h, ok := c.handle(peer)
	return ok && c.ctrl.Connected(h)
}

// Disconnect drops the baseband link to peer and clears all local state
// for it, so a later Connect performs a genuine fresh page.
func (c *Client) Disconnect(peer radio.BDAddr) {
	if c.recorder != nil {
		c.recorder.record(opDisconnect, nil)
	}
	c.handles = slices.DeleteFunc(c.handles, func(ph peerHandle) bool { return ph.peer == peer })
	if h, ok := c.ctrl.HandleFor(peer); ok {
		_ = c.ctrl.Disconnect(h)
	}
}

// NextID returns a fresh non-zero signaling identifier.
func (c *Client) NextID() uint8 {
	id := c.nextID
	c.nextID++
	if c.nextID == 0 {
		c.nextID = 1
	}
	return id
}

// NextSourceCID allocates a fresh requester-side channel endpoint.
func (c *Client) NextSourceCID() l2cap.CID {
	cid := c.nextCID
	c.nextCID++
	if c.nextCID < l2cap.CIDDynamicFirst {
		c.nextCID = l2cap.CIDDynamicFirst
	}
	return cid
}

// Send transmits one raw L2CAP packet to peer. A dead link is reported
// as ErrNotConnected (wrapped), which the vulnerability detector maps to
// its connection-error classes. The packet is marshaled into a reused
// scratch buffer, so steady-state sends do not allocate.
func (c *Client) Send(peer radio.BDAddr, pkt l2cap.Packet) error {
	// The handle check also lives in SendRaw; repeating it here skips
	// the marshal on link-less sends, which fuzzers hit in bursts while
	// hammering an already-dead target between liveness probes.
	if _, ok := c.handle(peer); !ok {
		return fmt.Errorf("%w: %v", ErrNotConnected, peer)
	}
	c.txWire = pkt.AppendTo(c.txWire[:0])
	return c.SendRaw(peer, c.txWire)
}

// SendCommand wraps a signaling command (with optional garbage tail) and
// sends it, returning the identifier used. The signaling frame is built
// in a reused scratch buffer.
func (c *Client) SendCommand(peer radio.BDAddr, cmd l2cap.Command, tail []byte) (uint8, error) {
	id := c.NextID()
	payload, declared := l2cap.AppendSignalFrame(c.sigWire[:0], id, cmd, tail)
	c.sigWire = payload
	return id, c.Send(peer, l2cap.Packet{
		Length:    uint16(min(declared, l2cap.MaxPayload)),
		ChannelID: l2cap.CIDSignaling,
		Payload:   payload,
	})
}

// Drain returns and clears the inbox. The returned packets (and their
// payloads) are a borrow, valid only until the next Drain: the slab
// holding their payloads is rewound and refilled then. Callers that
// retain a payload — the corpus, cross-round state — must copy it.
func (c *Client) Drain() []l2cap.Packet {
	out := c.inbox
	c.inbox = c.drained[:0]
	c.drained = out
	c.slab, c.drainedSlab = c.drainedSlab[:0], c.slab
	return out
}

// DrainCommands decodes the signaling commands out of the drained inbox,
// discarding undecodable frames. The returned slice and the commands in
// it are borrows, valid until the next Drain or DrainCommands: commands
// come from a per-code decoder cache, and their variable-length members
// alias the drained payloads.
func (c *Client) DrainCommands() []l2cap.Command {
	out := c.cmds[:0]
	for _, pkt := range c.Drain() {
		if !pkt.IsSignaling() {
			continue
		}
		frames, err := l2cap.AppendSignals(c.sigFrames[:0], pkt.Payload)
		if err != nil {
			c.sigFrames = frames[:0]
			continue
		}
		c.sigFrames = frames
		for _, f := range frames {
			if cmd, err := c.dec.Decode(f); err == nil {
				out = append(out, cmd)
			}
		}
	}
	c.cmds = out
	return out
}

// Ping sends an L2CAP Echo Request and reports whether the peer answered:
// the liveness probe of the vulnerability-detecting phase.
func (c *Client) Ping(peer radio.BDAddr) error {
	c.Drain()
	c.echo.Data = pingData
	if _, err := c.SendCommand(peer, &c.echo, nil); err != nil {
		return err
	}
	for _, cmd := range c.DrainCommands() {
		if _, ok := cmd.(*l2cap.EchoRsp); ok {
			return nil
		}
	}
	return ErrNoResponse
}

// ChannelResult is the outcome of a channel-open attempt.
type ChannelResult struct {
	// Result is the Connection Response result code.
	Result l2cap.ConnResult
	// LocalCID and RemoteCID are the endpoints when Result is success.
	LocalCID, RemoteCID l2cap.CID
}

// TryOpenChannel sends one Connection Request for psm and returns the
// peer's verdict without configuring the channel: the port-probe of the
// target-scanning phase.
func (c *Client) TryOpenChannel(peer radio.BDAddr, psm l2cap.PSM) (ChannelResult, error) {
	scid := c.NextSourceCID()
	c.Drain()
	if _, err := c.SendCommand(peer, &l2cap.ConnectionReq{PSM: psm, SCID: scid}, nil); err != nil {
		return ChannelResult{}, err
	}
	for _, cmd := range c.DrainCommands() {
		if rsp, ok := cmd.(*l2cap.ConnectionRsp); ok && rsp.SCID == scid {
			return ChannelResult{Result: rsp.Result, LocalCID: scid, RemoteCID: rsp.DCID}, nil
		}
	}
	return ChannelResult{}, ErrNoResponse
}

// OpenChannel opens and fully configures a channel to psm, answering the
// peer's own configuration requests (eager stacks send theirs immediately
// after accepting; strict stacks only after ours), and returns the
// endpoint pair.
func (c *Client) OpenChannel(peer radio.BDAddr, psm l2cap.PSM) (local, remote l2cap.CID, err error) {
	scid := c.NextSourceCID()
	c.Drain()
	if _, err := c.SendCommand(peer, &l2cap.ConnectionReq{PSM: psm, SCID: scid}, nil); err != nil {
		return 0, 0, err
	}
	var (
		dcid        l2cap.CID
		accepted    bool
		peerConfigs int
	)
	collect := func() {
		for _, cmd := range c.DrainCommands() {
			switch rsp := cmd.(type) {
			case *l2cap.ConnectionRsp:
				if rsp.SCID == scid {
					if rsp.Result != l2cap.ConnResultSuccess {
						err = fmt.Errorf("%w: %v", ErrChannelRefused, rsp.Result)
						return
					}
					dcid = rsp.DCID
					accepted = true
				}
			case *l2cap.ConfigurationReq:
				peerConfigs++
			}
		}
	}
	collect()
	if err != nil {
		return 0, 0, err
	}
	if !accepted {
		return 0, 0, ErrNoResponse
	}
	// Propose our configuration; the response (and, for strict stacks,
	// the peer's reactive request) arrives in the same round.
	if _, err2 := c.SendCommand(peer, &l2cap.ConfigurationReq{
		DCID:    dcid,
		Options: []l2cap.ConfigOption{l2cap.MTUOption(l2cap.DefaultSignalingMTU)},
	}, nil); err2 != nil {
		return 0, 0, err2
	}
	collect()
	if err != nil {
		return 0, 0, err
	}
	// Answer every configuration request the peer produced so it reaches
	// OPEN.
	for i := 0; i < peerConfigs; i++ {
		if _, err2 := c.SendCommand(peer, &l2cap.ConfigurationRsp{
			SCID: dcid, Result: l2cap.ConfigSuccess,
		}, nil); err2 != nil {
			return 0, 0, err2
		}
	}
	c.Drain()
	return scid, dcid, nil
}

// CloseChannel tears down a configured channel.
func (c *Client) CloseChannel(peer radio.BDAddr, local, remote l2cap.CID) error {
	c.Drain()
	if _, err := c.SendCommand(peer, &l2cap.DisconnectionReq{DCID: remote, SCID: local}, nil); err != nil {
		return err
	}
	for _, cmd := range c.DrainCommands() {
		if _, ok := cmd.(*l2cap.DisconnectionRsp); ok {
			return nil
		}
	}
	return ErrNoResponse
}

// QuerySDP opens the SDP channel, runs one ServiceSearchAttribute
// transaction, closes the channel, and returns the published services.
func (c *Client) QuerySDP(peer radio.BDAddr) ([]sdp.ServiceInfo, error) {
	local, remote, err := c.OpenChannel(peer, l2cap.PSMSDP)
	if err != nil {
		return nil, fmt.Errorf("open SDP channel: %w", err)
	}
	defer func() { _ = c.CloseChannel(peer, local, remote) }()

	req := sdp.NewServiceSearchAttributeReq(0x0001)
	c.Drain()
	if err := c.Send(peer, l2cap.NewPacket(remote, req.Marshal())); err != nil {
		return nil, err
	}
	for _, pkt := range c.Drain() {
		if pkt.ChannelID != local {
			continue
		}
		pdu, err := sdp.UnmarshalPDU(pkt.Payload)
		if err != nil {
			continue
		}
		services, err := sdp.ParseAttributeResponse(pdu)
		if err != nil {
			return nil, fmt.Errorf("parse SDP response: %w", err)
		}
		return services, nil
	}
	return nil, ErrNoResponse
}
