package hci

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"l2fuzz/internal/bt/radio"
)

// Controller is a virtual HCI controller: the firmware half of the
// Bluetooth stack (paper Figure 1). It owns the baseband state —
// discoverability, connection handles, fragmentation — and hands complete
// L2CAP frames to the host stack above it.
//
// Controller is not safe for concurrent use; the discrete-event
// simulation is single-threaded (see package radio).
type Controller struct {
	addr   radio.BDAddr
	medium *radio.Medium

	// identity metadata exposed during inquiry
	name          string
	classOfDevice uint32
	discoverable  bool
	connectable   bool

	nextHandle ConnHandle

	// txScratch is the reused wire buffer for outbound ACL fragments. A
	// carried frame is a borrow the medium and receiver must not retain,
	// so one scratch per controller suffices: each Carry fully delivers
	// before the next fragment overwrites it.
	txScratch []byte

	// links holds the live links in creation order, scanned linearly by
	// handle or by peer: a controller carries one link in a rig and a
	// handful at most, so a map would only add hashing to every frame.
	links []*link

	// receiver gets complete L2CAP frames from the host side.
	receiver func(h ConnHandle, peer radio.BDAddr, l2capFrame []byte)
	// disconnected notifies the host of torn-down links.
	disconnected func(h ConnHandle, peer radio.BDAddr)
}

type link struct {
	handle     ConnHandle
	peer       radio.BDAddr
	reassembly Reassembler
}

// Controller errors.
var (
	// ErrNoSuchHandle indicates an unknown connection handle.
	ErrNoSuchHandle = errors.New("hci: no such connection handle")
	// ErrAlreadyConnected indicates a duplicate connection to one peer.
	ErrAlreadyConnected = errors.New("hci: already connected to peer")
)

// Config carries the identity of a controller.
type Config struct {
	// Addr is the BD_ADDR.
	Addr radio.BDAddr
	// Name is the friendly device name revealed by remote-name requests.
	Name string
	// ClassOfDevice is the 24-bit class-of-device code.
	ClassOfDevice uint32
	// Discoverable controls inquiry responses.
	Discoverable bool
	// Connectable controls page (connection) acceptance.
	Connectable bool
}

// NewController creates a controller and registers it on the medium.
func NewController(m *radio.Medium, cfg Config) (*Controller, error) {
	c := &Controller{
		addr:          cfg.Addr,
		medium:        m,
		name:          cfg.Name,
		classOfDevice: cfg.ClassOfDevice,
		discoverable:  cfg.Discoverable,
		connectable:   cfg.Connectable,
		nextHandle:    0x0001,
	}
	if err := m.Register(c); err != nil {
		return nil, fmt.Errorf("register controller: %w", err)
	}
	return c, nil
}

var (
	_ radio.Endpoint     = (*Controller)(nil)
	_ radio.LinkObserver = (*Controller)(nil)
)

// LinkDown implements radio.LinkObserver: the medium reports link loss
// (the peer dropped the link or vanished), equivalent to a Disconnection
// Complete event.
func (c *Controller) LinkDown(peer radio.BDAddr) {
	if l := c.byPeer(peer); l != nil {
		c.removeLink(l)
	}
}

// Address implements radio.Endpoint.
func (c *Controller) Address() radio.BDAddr { return c.addr }

// Connectable implements radio.Endpoint.
func (c *Controller) Connectable() bool { return c.connectable }

// Discoverable implements radio.Endpoint.
func (c *Controller) Discoverable() (radio.InquiryResult, bool) {
	if !c.discoverable {
		return radio.InquiryResult{}, false
	}
	return radio.InquiryResult{
		Addr:          c.addr,
		Name:          c.name,
		ClassOfDevice: c.classOfDevice,
	}, true
}

// SetReceiver installs the host-stack callback for complete inbound
// L2CAP frames. The frame passed to the callback is a borrow, valid only
// until the callback returns; the host must copy anything it retains.
func (c *Controller) SetReceiver(fn func(h ConnHandle, peer radio.BDAddr, l2capFrame []byte)) {
	c.receiver = fn
}

// SetDisconnectHandler installs the host-stack callback for link loss.
func (c *Controller) SetDisconnectHandler(fn func(h ConnHandle, peer radio.BDAddr)) {
	c.disconnected = fn
}

// Inquiry sweeps the medium for discoverable devices.
func (c *Controller) Inquiry() []radio.InquiryResult {
	return c.medium.Inquiry(c.addr)
}

// Connect pages the peer and allocates a connection handle.
func (c *Controller) Connect(peer radio.BDAddr) (ConnHandle, error) {
	if c.byPeer(peer) != nil {
		return 0, fmt.Errorf("%w: %v", ErrAlreadyConnected, peer)
	}
	if err := c.medium.Page(c.addr, peer); err != nil {
		return 0, fmt.Errorf("page %v: %w", peer, err)
	}
	return c.addLink(peer).handle, nil
}

// Disconnect drops the link behind the handle.
func (c *Controller) Disconnect(h ConnHandle) error {
	l := c.byHandle(h)
	if l == nil {
		return fmt.Errorf("%w: %v", ErrNoSuchHandle, h)
	}
	c.medium.Drop(c.addr, l.peer)
	c.removeLink(l)
	return nil
}

// Connected reports whether a handle is live.
func (c *Controller) Connected(h ConnHandle) bool {
	return c.byHandle(h) != nil
}

// HandleFor returns the handle of an existing link to peer.
func (c *Controller) HandleFor(peer radio.BDAddr) (ConnHandle, bool) {
	l := c.byPeer(peer)
	if l == nil {
		return 0, false
	}
	return l.handle, true
}

// SendL2CAP fragments one complete L2CAP frame and carries every fragment
// across the medium. Fragmentation happens in place against a reused
// scratch buffer, so steady-state sends do not allocate.
func (c *Controller) SendL2CAP(h ConnHandle, l2capFrame []byte) error {
	l := c.byHandle(h)
	if l == nil {
		return fmt.Errorf("%w: %v", ErrNoSuchHandle, h)
	}
	boundary := BoundaryFirstFlushable
	rest := l2capFrame
	for {
		n := min(len(rest), DefaultACLBufferSize)
		frag := ACLPacket{Handle: h, Boundary: boundary, Data: rest[:n]}
		c.txScratch = frag.AppendTo(c.txScratch[:0])
		if err := c.medium.Carry(c.addr, l.peer, c.txScratch); err != nil {
			return fmt.Errorf("carry fragment: %w", err)
		}
		rest = rest[n:]
		if len(rest) == 0 {
			return nil
		}
		boundary = BoundaryContinuation
	}
}

// ReceiveFrame implements radio.Endpoint: an ACL fragment arrived.
func (c *Controller) ReceiveFrame(from radio.BDAddr, data []byte) {
	pkt, err := ParseACL(data)
	if err != nil {
		return // malformed baseband frames are dropped silently, as hardware does
	}
	l := c.byPeer(from)
	if l == nil {
		// Implicit link acceptance: the peer paged us and this is the
		// first traffic. Accept if we are connectable.
		if !c.connectable {
			return
		}
		l = c.addLink(from)
	}
	frame, done, err := l.reassembly.Push(pkt)
	if err != nil || !done {
		return
	}
	if c.receiver != nil {
		c.receiver(l.handle, from, frame)
	}
}

// Peers returns the addresses of all live links, in ascending handle
// order (deterministic).
func (c *Controller) Peers() []radio.BDAddr {
	links := slices.Clone(c.links)
	slices.SortFunc(links, func(a, b *link) int { return cmp.Compare(a.handle, b.handle) })
	peers := make([]radio.BDAddr, len(links))
	for i, l := range links {
		peers[i] = l.peer
	}
	return peers
}

// DropPeer tears down the link to peer, notifying the host. Used by the
// device model to simulate crashes that kill the Bluetooth service.
func (c *Controller) DropPeer(peer radio.BDAddr) {
	if l := c.byPeer(peer); l != nil {
		c.medium.Drop(c.addr, peer)
		c.removeLink(l)
	}
}

// SetConnectable flips page-acceptance at runtime (service down/up).
func (c *Controller) SetConnectable(v bool) { c.connectable = v }

// SetDiscoverable flips inquiry visibility at runtime.
func (c *Controller) SetDiscoverable(v bool) { c.discoverable = v }

func (c *Controller) addLink(peer radio.BDAddr) *link {
	l := &link{handle: c.nextHandle, peer: peer}
	c.nextHandle++
	if c.nextHandle > MaxConnHandle {
		c.nextHandle = 0x0001
	}
	c.links = append(c.links, l)
	return l
}

// byHandle returns the live link with handle h, or nil.
func (c *Controller) byHandle(h ConnHandle) *link {
	for _, l := range c.links {
		if l.handle == h {
			return l
		}
	}
	return nil
}

// byPeer returns the live link to peer, or nil.
func (c *Controller) byPeer(peer radio.BDAddr) *link {
	for _, l := range c.links {
		if l.peer == peer {
			return l
		}
	}
	return nil
}

// removeLink is idempotent: a link can be torn down both by a local
// Disconnect and by the medium's LinkDown notification.
func (c *Controller) removeLink(l *link) {
	i := slices.Index(c.links, l)
	if i < 0 {
		return
	}
	c.links = slices.Delete(c.links, i, i+1)
	if c.disconnected != nil {
		c.disconnected(l.handle, l.peer)
	}
}
