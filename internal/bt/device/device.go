package device

import (
	"fmt"

	"l2fuzz/internal/bt/hci"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/rfcomm"
	"l2fuzz/internal/bt/sdp"
	"l2fuzz/internal/bt/sm"
)

// Config describes one simulated device.
type Config struct {
	// Addr is the BD_ADDR; its OUI identifies the vendor.
	Addr radio.BDAddr
	// Name is the friendly device name.
	Name string
	// ClassOfDevice is the 24-bit class-of-device code.
	ClassOfDevice uint32
	// Profile selects the vendor stack behaviour.
	Profile Profile
	// Ports are the exposed services. An SDP port (PSM 0x0001) is added
	// automatically when absent, since every Bluetooth device has one.
	Ports []ServicePort
	// DisableVulns suppresses all injected defects: used by measurement
	// experiments that must survive 100,000 packets.
	DisableVulns bool
	// RFCOMMServices mounts an RFCOMM multiplexer with these services on
	// the device's RFCOMM L2CAP channel (the §V extension substrate).
	RFCOMMServices []rfcomm.Service
	// RFCOMMDefect optionally injects a defect into the multiplexer.
	// Defects are declarative (kind plus calibration), so a Config is
	// plain data; nil means a robust mux.
	RFCOMMDefect *rfcomm.MuxDefect
	// SDPDefect optionally injects a parser defect into the device's SDP
	// server; nil means a robust server.
	SDPDefect *sdp.ServerDefect
}

// Device is one simulated Bluetooth target.
type Device struct {
	ctrl   *hci.Controller
	medium *radio.Medium
	cfg    Config
	sdpSrv *sdp.Server
	mux    *rfcomm.Mux
	ports  []ServicePort

	channels map[l2cap.CID]*channel
	// closedVisited holds the states every closed channel occupied.
	closedVisited sm.StateSet
	nextCID       l2cap.CID
	nextSigID     uint8

	serviceDown bool
	poweredOff  bool
	dump        *CrashDump

	// cmdSeq counts signaling commands decoded since the last Reset: the
	// command clock exhaustion-style defect triggers
	// (device.TriggerCommandFlood) read through TriggerContext.Seq.
	cmdSeq int

	// handlerHits counts invocations per packet handler: the simulated
	// analogue of the limited code-coverage measurement the paper's §V
	// cites Frankenstein for. Signaling handlers are indexed by command
	// code; HandlerCoverage names them.
	handlerHits handlerHits

	// Reused scratch state for the steady-state receive/respond path.
	// The device never receives while mid-send (the client's receive
	// callback only enqueues), so one of each per device suffices.
	dec       l2cap.Decoder
	sigFrames []l2cap.Frame // AppendSignals scratch in onSignaling
	sigWire   []byte        // signaling payload built by sendCmd
	txWire    []byte        // wire bytes of the frame being sent

	// Every signaling command the device sends is one of these values: a
	// handler refills it and sendCmd marshals it before the next handler
	// runs, so no answer allocates.
	echoRsp        l2cap.EchoRsp
	reject         l2cap.CommandReject // every reason; reuses its reason-data buffer
	connRsp        l2cap.ConnectionRsp
	createRsp      l2cap.CreateChannelRsp
	ownConfigReq   l2cap.ConfigurationReq // options fixed by New
	configRsp      l2cap.ConfigurationRsp
	discRsp        l2cap.DisconnectionRsp
	infoRsp        l2cap.InformationRsp
	moveRsp        l2cap.MoveChannelRsp
	moveConfirmRsp l2cap.MoveChannelConfirmRsp
	creditConnRsp  l2cap.CreditBasedConnRsp
}

// Information Response data per supported capability, shared read-only
// by every device's infoRsp.
var (
	infoConnectionlessMTU = [...]byte{0xA0, 0x02}             // 672
	infoExtendedFeatures  = [...]byte{0x80, 0x02, 0x00, 0x00} // FCS + fixed channels
	infoFixedChannels     = [...]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}
)

// handlerHits is the per-handler invocation tally: one counter per
// command code plus the data-plane and undecodable-frame handlers.
type handlerHits struct {
	byCode                   [256]int
	sdp, rfcomm, undecodable int
}

type channel struct {
	m         sm.Machine
	localCID  l2cap.CID
	remoteCID l2cap.CID
	psm       l2cap.PSM
}

// newSDPServer builds the device's SDP server over its port map, with
// the configured parser defect unless the device is measurement-grade.
// New and Reset both build through it, so a reset re-arms the defect and
// clears the crashed state exactly like the RFCOMM mux rebuild.
func newSDPServer(ports []ServicePort, cfg Config) *sdp.Server {
	var services []sdp.ServiceInfo
	for i, p := range ports {
		services = append(services, sdp.ServiceInfo{
			Handle: 0x00010000 + uint32(i),
			Name:   p.Name,
			PSM:    p.PSM,
		})
	}
	defect := cfg.SDPDefect
	if cfg.DisableVulns {
		defect = nil
	}
	return sdp.NewDefectiveServer(services, defect)
}

// New builds a device, registers its controller on the medium, and wires
// the host stack.
func New(m *radio.Medium, cfg Config) (*Device, error) {
	ports := append([]ServicePort(nil), cfg.Ports...)
	hasSDP := false
	for _, p := range ports {
		if p.PSM == l2cap.PSMSDP {
			hasSDP = true
		}
	}
	if !hasSDP {
		ports = append([]ServicePort{{PSM: l2cap.PSMSDP, Name: "Service Discovery"}}, ports...)
	}

	ctrl, err := hci.NewController(m, hci.Config{
		Addr:          cfg.Addr,
		Name:          cfg.Name,
		ClassOfDevice: cfg.ClassOfDevice,
		Discoverable:  true,
		Connectable:   true,
	})
	if err != nil {
		return nil, fmt.Errorf("device %q: %w", cfg.Name, err)
	}

	d := &Device{
		ctrl:      ctrl,
		medium:    m,
		cfg:       cfg,
		sdpSrv:    newSDPServer(ports, cfg),
		ports:     ports,
		channels:  make(map[l2cap.CID]*channel),
		nextCID:   l2cap.CIDDynamicFirst,
		nextSigID: 1,
	}
	d.ownConfigReq.Options = []l2cap.ConfigOption{l2cap.MTUOption(cfg.Profile.SignalingMTU)}
	if len(cfg.RFCOMMServices) > 0 {
		defect := cfg.RFCOMMDefect
		if cfg.DisableVulns {
			defect = nil
		}
		d.mux = rfcomm.NewMux(cfg.RFCOMMServices, defect)
	}
	ctrl.SetReceiver(d.onL2CAP)
	ctrl.SetDisconnectHandler(func(hci.ConnHandle, radio.BDAddr) {
		// Baseband link loss tears down every L2CAP channel riding it
		// (single-peer simulation: all channels belong to the link).
		for _, ch := range d.channels {
			d.closeChannel(ch)
		}
	})
	return d, nil
}

// Address returns the device's BD_ADDR.
func (d *Device) Address() radio.BDAddr { return d.cfg.Addr }

// Ports returns a copy of the exposed service ports (SDP included).
func (d *Device) Ports() []ServicePort { return append([]ServicePort(nil), d.ports...) }

// Controller exposes the underlying virtual controller (tests only).
func (d *Device) Controller() *hci.Controller { return d.ctrl }

// Crashed reports whether any defect has fired.
func (d *Device) Crashed() bool { return d.serviceDown || d.poweredOff }

// CrashDump returns the crash artefact, or nil.
func (d *Device) CrashDump() *CrashDump { return d.dump }

// Reset restores a crashed device: the manual reset the paper's testers
// performed between runs. Channels are cleared, the service comes back,
// the crash artefact is discarded, and a device that powered off is
// registered on its medium again.
func (d *Device) Reset() error {
	wasOff := d.poweredOff
	d.serviceDown = false
	d.poweredOff = false
	d.dump = nil
	d.channels = make(map[l2cap.CID]*channel)
	d.closedVisited = 0
	d.nextCID = l2cap.CIDDynamicFirst
	d.cmdSeq = 0
	d.sdpSrv = newSDPServer(d.ports, d.cfg)
	if len(d.cfg.RFCOMMServices) > 0 {
		defect := d.cfg.RFCOMMDefect
		if d.cfg.DisableVulns {
			defect = nil
		}
		d.mux = rfcomm.NewMux(d.cfg.RFCOMMServices, defect)
	}
	d.ctrl.SetConnectable(true)
	d.ctrl.SetDiscoverable(true)
	if wasOff {
		if err := d.medium.Register(d.ctrl); err != nil {
			return fmt.Errorf("device: re-register after reset: %w", err)
		}
	}
	return nil
}

// StatesVisited returns every L2CAP state any of the device's channels
// has occupied since the last Reset: the ground truth against which the
// trace-inferred state coverage (Figure 10) can be validated.
func (d *Device) StatesVisited() []sm.State {
	visited := d.closedVisited
	for _, ch := range d.channels {
		visited.AddVisited(&ch.m)
	}
	return visited.AppendStates(nil)
}

// onL2CAP is the host-stack entry point for complete L2CAP frames.
func (d *Device) onL2CAP(h hci.ConnHandle, peer radio.BDAddr, raw []byte) {
	if d.poweredOff || d.serviceDown {
		return
	}
	// The frame is a borrow from the controller, valid until this
	// handler returns; every response below is marshaled before then,
	// so the zero-copy parse is safe.
	pkt, err := l2cap.ParsePacket(raw)
	if err != nil {
		return // undecodable basic frames are dropped
	}
	if pkt.IsSignaling() {
		d.onSignaling(h, pkt)
		return
	}
	d.onData(h, pkt)
}

// onData serves open data channels: SDP transactions and, when mounted,
// the RFCOMM multiplexer.
func (d *Device) onData(h hci.ConnHandle, pkt l2cap.Packet) {
	ch, ok := d.channels[pkt.ChannelID]
	if !ok || ch.m.State() != sm.StateOpen {
		return
	}
	body := pkt.Payload[:min(int(pkt.Length), len(pkt.Payload))]
	switch {
	case ch.psm == l2cap.PSMSDP:
		d.handlerHits.sdp++
		if rsp := d.sdpSrv.Handle(body); rsp != nil {
			d.send(h, l2cap.NewPacket(ch.remoteCID, rsp))
		}
		if d.sdpSrv.Crashed() {
			d.crashFromSDP()
		}
	case ch.psm == l2cap.PSMRFCOMM && d.mux != nil:
		d.handlerHits.rfcomm++
		// RFCOMM garbage tails live beyond the declared L2CAP length;
		// hand the mux the full payload so its own FCS/tail logic sees
		// them (the buggy parse path reads past the declared length).
		for _, rsp := range d.mux.Handle(pkt.Payload) {
			d.send(h, l2cap.NewPacket(ch.remoteCID, rsp))
		}
		if d.mux.Crashed() {
			d.crashFromRFCOMM()
		}
	}
}

// crashFromSDP applies the effect of an SDP server death: the Bluetooth
// service terminates, as with the L2CAP DoS findings.
func (d *Device) crashFromSDP() {
	d.dump = &CrashDump{
		Kind:        DumpTombstone,
		Time:        d.medium.Clock().Now(),
		VulnID:      "sdp-declared-length-overread",
		Fingerprint: d.cfg.Profile.Fingerprint,
		FaultFunc:   "process_service_search_attr_req(t_sdp_cb*, unsigned char*)+312",
		Trigger:     "SDP PDU declaring more parameter bytes than received",
	}
	d.serviceDown = true
	d.ctrl.SetConnectable(false)
	d.ctrl.SetDiscoverable(false)
	d.dropAllLinks()
}

// crashFromRFCOMM applies the effect of an RFCOMM multiplexer death: the
// Bluetooth service terminates, as with the L2CAP DoS findings.
func (d *Device) crashFromRFCOMM() {
	d.dump = &CrashDump{
		Kind:        DumpTombstone,
		Time:        d.medium.Clock().Now(),
		VulnID:      "rfcomm-reserved-dlci-deref",
		Fingerprint: d.cfg.Profile.Fingerprint,
		FaultFunc:   "rfc_mx_sm_execute(t_rfc_mcb*, unsigned short, void*)+1024",
		Trigger:     "SABM to reserved DLCI with garbage tail",
	}
	d.serviceDown = true
	d.ctrl.SetConnectable(false)
	d.ctrl.SetDiscoverable(false)
	d.dropAllLinks()
}

// onSignaling handles a signaling-channel C-frame.
func (d *Device) onSignaling(h hci.ConnHandle, pkt l2cap.Packet) {
	if len(pkt.Payload) > int(d.cfg.Profile.SignalingMTU) {
		d.reject.SetMTUExceeded(d.cfg.Profile.SignalingMTU)
		d.sendCmd(h, 0, &d.reject, nil)
		return
	}
	frames, err := l2cap.AppendSignals(d.sigFrames[:0], pkt.Payload)
	d.sigFrames = frames[:0]
	if err != nil {
		d.rejectNotUnderstood(h, 0)
		return
	}
	for _, f := range frames {
		d.handleCommand(h, f)
		if d.Crashed() {
			return
		}
	}
}

// handleCommand dispatches one decoded signaling command.
func (d *Device) handleCommand(h hci.ConnHandle, f l2cap.Frame) {
	cmd, err := d.dec.Decode(f)
	if err != nil {
		d.handlerHits.undecodable++
		d.rejectNotUnderstood(h, f.Identifier)
		return
	}
	d.handlerHits.byCode[f.Code]++
	d.cmdSeq++
	switch c := cmd.(type) {
	case *l2cap.ConnectionReq:
		d.onConnectionReq(h, f, c)
	case *l2cap.CreateChannelReq:
		d.onCreateChannelReq(h, f, c)
	case *l2cap.ConfigurationReq:
		d.onConfigurationReq(h, f, c)
	case *l2cap.ConfigurationRsp:
		d.onConfigurationRsp(h, f, c)
	case *l2cap.DisconnectionReq:
		d.onDisconnectionReq(h, f, c)
	case *l2cap.EchoReq:
		d.echoRsp.Data = c.Data
		d.sendCmd(h, f.Identifier, &d.echoRsp, nil)
	case *l2cap.InformationReq:
		d.onInformationReq(h, f, c)
	case *l2cap.MoveChannelReq:
		d.onMoveChannelReq(h, f, c)
	case *l2cap.MoveChannelConfirmReq:
		d.onMoveConfirmReq(h, f, c)
	case *l2cap.ConnectionRsp, *l2cap.CreateChannelRsp, *l2cap.MoveChannelRsp,
		*l2cap.MoveChannelConfirmRsp, *l2cap.DisconnectionRsp:
		d.onStrayResponse(h, f)
	case *l2cap.CommandReject, *l2cap.EchoRsp, *l2cap.InformationRsp:
		// Responses to nothing we asked; ignored by every stack.
	case *l2cap.ConnParamUpdateReq, *l2cap.ConnParamUpdateRsp,
		*l2cap.LECreditConnReq, *l2cap.LECreditConnRsp:
		// LE-only commands on an ACL-U link: tolerant stacks drop them,
		// strict stacks do not understand them.
		if !d.cfg.Profile.TolerateLEOnACLU {
			d.rejectNotUnderstood(h, f.Identifier)
		}
	case *l2cap.FlowControlCredit:
		d.rejectInvalidCID(h, f.Identifier, 0, c.CID)
	case *l2cap.CreditBasedConnReq:
		d.onCreditConnReq(h, f, c)
	case *l2cap.CreditBasedConnRsp, *l2cap.CreditBasedReconfReq, *l2cap.CreditBasedReconfRsp:
		if !d.cfg.Profile.SupportsECRED {
			d.rejectNotUnderstood(h, f.Identifier)
		}
	default:
		d.rejectNotUnderstood(h, f.Identifier)
	}
}

// onConnectionReq implements the acceptor side of channel establishment.
func (d *Device) onConnectionReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.ConnectionReq) {
	if d.checkVuln(h, f, c, sm.StateClosed, false) {
		return
	}
	reply := func(result l2cap.ConnResult, dcid l2cap.CID) {
		d.connRsp = l2cap.ConnectionRsp{DCID: dcid, SCID: c.SCID, Result: result}
		d.sendCmd(h, f.Identifier, &d.connRsp, nil)
	}
	port, ok := d.lookupPort(c.PSM)
	switch {
	case !ok:
		reply(l2cap.ConnResultPSMNotSupported, 0)
	case port.RequiresPairing:
		reply(l2cap.ConnResultSecurityBlock, 0)
	case len(d.channels) >= d.cfg.Profile.MaxDynamicChannels:
		reply(l2cap.ConnResultNoResources, 0)
	case d.remoteCIDInUse(c.SCID):
		reply(l2cap.ConnResultSCIDInUse, 0)
	case !c.SCID.IsDynamic():
		reply(l2cap.ConnResultInvalidSCID, 0)
	default:
		ch := d.newChannel(c.PSM, c.SCID)
		ch.m.Apply(sm.EvRecvConnectReq) // CLOSED → WAIT_CONNECT
		ch.m.Apply(sm.EvLocalAccept)    // WAIT_CONNECT → WAIT_CONFIG
		reply(l2cap.ConnResultSuccess, ch.localCID)
		d.maybeSendOwnConfig(h, ch)
	}
}

// onCreateChannelReq implements the AMP create-channel acceptor.
func (d *Device) onCreateChannelReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.CreateChannelReq) {
	if d.checkVuln(h, f, c, sm.StateWaitCreate, false) {
		return
	}
	reply := func(result l2cap.ConnResult, dcid l2cap.CID) {
		d.createRsp = l2cap.CreateChannelRsp{DCID: dcid, SCID: c.SCID, Result: result}
		d.sendCmd(h, f.Identifier, &d.createRsp, nil)
	}
	port, ok := d.lookupPort(c.PSM)
	switch {
	case c.ControllerID != 0:
		// Only the BR/EDR controller exists in the simulation.
		reply(l2cap.ConnResultNoController, 0)
	case !ok:
		reply(l2cap.ConnResultPSMNotSupported, 0)
	case port.RequiresPairing:
		reply(l2cap.ConnResultSecurityBlock, 0)
	case len(d.channels) >= d.cfg.Profile.MaxDynamicChannels:
		reply(l2cap.ConnResultNoResources, 0)
	case d.remoteCIDInUse(c.SCID) || !c.SCID.IsDynamic():
		reply(l2cap.ConnResultInvalidSCID, 0)
	default:
		ch := d.newChannel(c.PSM, c.SCID)
		ch.m.Apply(sm.EvRecvCreateReq) // CLOSED → WAIT_CREATE
		ch.m.Apply(sm.EvLocalAccept)   // WAIT_CREATE → WAIT_CONFIG
		reply(l2cap.ConnResultSuccess, ch.localCID)
		d.maybeSendOwnConfig(h, ch)
	}
}

// onConfigurationReq implements the configuration responder, including
// the lenient channel lookup of the vulnerable stacks.
func (d *Device) onConfigurationReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.ConfigurationReq) {
	ch, known := d.channels[c.DCID]
	if !known && d.cfg.Profile.LenientChannelLookup {
		ch = d.anyConfigJobChannel()
	}
	state := sm.StateClosed
	if ch != nil {
		state = ch.m.State()
	}
	if d.checkVuln(h, f, c, state, known) {
		return
	}
	if ch == nil {
		d.rejectInvalidCID(h, f.Identifier, 0, c.DCID)
		return
	}
	ev := sm.EvRecvConfigReq
	if hasEFSOption(c.Options) {
		ev = sm.EvRecvConfigReqEFS
	}
	tr, ok := ch.m.Apply(ev)
	if !ok {
		d.rejectNotUnderstood(h, f.Identifier)
		return
	}
	result := l2cap.ConfigSuccess
	if tr.Action == sm.ActSendConfigRspPending {
		result = l2cap.ConfigPending
	}
	d.configRsp = l2cap.ConfigurationRsp{SCID: ch.remoteCID, Result: result}
	d.sendCmd(h, f.Identifier, &d.configRsp, nil)
	if tr.Action == sm.ActSendConfigRspPending {
		// Complete the lockstep decision immediately: final response.
		if tr2, ok2 := ch.m.Apply(sm.EvLocalFinalRsp); ok2 && tr2.Action == sm.ActSendConfigRsp {
			d.configRsp = l2cap.ConfigurationRsp{SCID: ch.remoteCID, Result: l2cap.ConfigSuccess}
			d.sendCmd(h, d.sigID(), &d.configRsp, nil)
		}
		return
	}
	if ch.m.State() == sm.StateWaitSendConfig {
		// Reactive configuration: even stacks that do not propose eagerly
		// send their own request once the peer has configured.
		d.sendOwnConfig(h, ch)
	}
}

// onConfigurationRsp consumes responses to the device's own proposals.
func (d *Device) onConfigurationRsp(h hci.ConnHandle, f l2cap.Frame, c *l2cap.ConfigurationRsp) {
	ch, known := d.channels[c.SCID]
	if !known && d.cfg.Profile.LenientChannelLookup {
		ch = d.anyConfigJobChannel()
	}
	state := sm.StateClosed
	if ch != nil {
		state = ch.m.State()
	}
	if d.checkVuln(h, f, c, state, known) {
		return
	}
	if ch == nil {
		d.onStrayResponse(h, f)
		return
	}
	if _, ok := ch.m.Apply(sm.EvRecvConfigRsp); !ok {
		d.onStrayResponse(h, f)
	}
}

// onDisconnectionReq tears a channel down.
func (d *Device) onDisconnectionReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.DisconnectionReq) {
	ch, known := d.channels[c.DCID]
	state := sm.StateClosed
	if ch != nil {
		state = ch.m.State()
	}
	if d.checkVuln(h, f, c, state, known) {
		return
	}
	if ch == nil || (!d.cfg.Profile.LenientChannelLookup && ch.remoteCID != c.SCID) {
		d.rejectInvalidCID(h, f.Identifier, c.DCID, c.SCID)
		return
	}
	tr, ok := ch.m.Apply(sm.EvRecvDisconnectReq)
	if !ok {
		d.rejectNotUnderstood(h, f.Identifier)
		return
	}
	if tr.Action == sm.ActDeliverToUpper {
		// OPEN → WAIT_DISCONNECT → (upper accepts) → CLOSED.
		tr, ok = ch.m.Apply(sm.EvLocalAccept)
		if !ok {
			return
		}
	}
	if tr.Action == sm.ActSendDisconnectRsp {
		d.discRsp = l2cap.DisconnectionRsp{DCID: c.DCID, SCID: c.SCID}
		d.sendCmd(h, f.Identifier, &d.discRsp, nil)
	}
	d.closeChannel(ch)
}

// onInformationReq answers capability queries.
func (d *Device) onInformationReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.InformationReq) {
	rsp := &d.infoRsp
	*rsp = l2cap.InformationRsp{InfoType: c.InfoType, Result: l2cap.InfoResultSuccess}
	switch c.InfoType {
	case l2cap.InfoTypeConnectionlessMTU:
		rsp.Data = infoConnectionlessMTU[:]
	case l2cap.InfoTypeExtendedFeatures:
		rsp.Data = infoExtendedFeatures[:]
	case l2cap.InfoTypeFixedChannels:
		rsp.Data = infoFixedChannels[:]
	default:
		rsp.Result = l2cap.InfoResultNotSupported
	}
	d.sendCmd(h, f.Identifier, rsp, nil)
}

// onMoveChannelReq implements the AMP move acceptor.
func (d *Device) onMoveChannelReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.MoveChannelReq) {
	ch, known := d.channels[c.ICID]
	state := sm.StateClosed
	if ch != nil {
		state = ch.m.State()
	}
	if d.checkVuln(h, f, c, state, known) {
		return
	}
	if ch == nil {
		d.rejectInvalidCID(h, f.Identifier, 0, c.ICID)
		return
	}
	if _, ok := ch.m.Apply(sm.EvRecvMoveReq); !ok {
		d.rejectNotUnderstood(h, f.Identifier)
		return
	}
	if tr, ok := ch.m.Apply(sm.EvLocalAccept); ok && tr.Action == sm.ActSendMoveRsp {
		d.moveRsp = l2cap.MoveChannelRsp{ICID: c.ICID, Result: l2cap.MoveResultSuccess}
		d.sendCmd(h, f.Identifier, &d.moveRsp, nil)
	}
}

// onMoveConfirmReq completes a move.
func (d *Device) onMoveConfirmReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.MoveChannelConfirmReq) {
	ch, known := d.channels[c.ICID]
	state := sm.StateClosed
	if ch != nil {
		state = ch.m.State()
	}
	if d.checkVuln(h, f, c, state, known) {
		return
	}
	if ch == nil {
		d.rejectInvalidCID(h, f.Identifier, 0, c.ICID)
		return
	}
	if tr, ok := ch.m.Apply(sm.EvRecvMoveConfirmReq); ok && tr.Action == sm.ActSendMoveConfirmRsp {
		d.moveConfirmRsp.ICID = c.ICID
		d.sendCmd(h, f.Identifier, &d.moveConfirmRsp, nil)
		return
	}
	d.rejectNotUnderstood(h, f.Identifier)
}

// onCreditConnReq answers enhanced credit-based connections: supported
// stacks refuse them politely (no SPSM registered in the simulation),
// others do not understand them.
func (d *Device) onCreditConnReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.CreditBasedConnReq) {
	if !d.cfg.Profile.SupportsECRED {
		d.rejectNotUnderstood(h, f.Identifier)
		return
	}
	d.creditConnRsp = l2cap.CreditBasedConnRsp{
		Result: 0x0002, // all connections refused – SPSM not supported
	}
	d.sendCmd(h, f.Identifier, &d.creditConnRsp, nil)
}

// onStrayResponse handles response commands matching no request.
func (d *Device) onStrayResponse(h hci.ConnHandle, f l2cap.Frame) {
	if d.cfg.Profile.AcceptStrayResponses {
		return // the Android quirk: silently tolerated
	}
	d.rejectNotUnderstood(h, f.Identifier)
}

// checkVuln evaluates the injected defects against one command; when one
// fires it applies the crash effect and returns true (no response is ever
// sent — the stack died mid-parse).
func (d *Device) checkVuln(h hci.ConnHandle, f l2cap.Frame, cmd l2cap.Command, state sm.State, knownCID bool) bool {
	if d.cfg.DisableVulns {
		return false
	}
	ctx := TriggerContext{
		State:    state,
		Code:     f.Code,
		Cmd:      cmd,
		Tail:     f.Tail,
		KnownCID: knownCID,
		Seq:      d.cmdSeq,
	}
	for _, v := range d.cfg.Profile.Vulns {
		if v.Trigger.Matches(ctx) {
			d.crash(v, f)
			return true
		}
	}
	return false
}

// crash applies a fired defect's effect.
func (d *Device) crash(v VulnSpec, f l2cap.Frame) {
	d.dump = &CrashDump{
		Kind:        v.Dump,
		Time:        d.medium.Clock().Now(),
		VulnID:      v.ID,
		Fingerprint: d.cfg.Profile.Fingerprint,
		FaultFunc:   v.FaultFunc,
		Trigger:     fmt.Sprintf("%v id=%d data=%d bytes tail=%d bytes", f.Code, f.Identifier, len(f.Data), len(f.Tail)),
	}
	switch v.Class {
	case ClassDoS:
		// Bluetooth service terminates: links die, pages are refused,
		// the device itself stays on (paper Figure 13).
		d.serviceDown = true
		d.ctrl.SetConnectable(false)
		d.ctrl.SetDiscoverable(false)
		d.dropAllLinks()
	case ClassCrash:
		// The device (or its Bluetooth subsystem) dies entirely.
		d.poweredOff = true
		d.ctrl.SetConnectable(false)
		d.ctrl.SetDiscoverable(false)
		d.dropAllLinks()
		d.medium.Unregister(d.cfg.Addr)
	}
}

func (d *Device) dropAllLinks() {
	for _, peer := range d.ctrl.Peers() {
		d.ctrl.DropPeer(peer)
	}
}

// --- helpers ---

func (d *Device) lookupPort(psm l2cap.PSM) (ServicePort, bool) {
	for _, p := range d.ports {
		if p.PSM == psm {
			return p, true
		}
	}
	return ServicePort{}, false
}

func (d *Device) remoteCIDInUse(cid l2cap.CID) bool {
	for _, ch := range d.channels {
		if ch.remoteCID == cid {
			return true
		}
	}
	return false
}

// anyConfigJobChannel returns some channel currently in a configuration-
// job state: the target of the sloppy CCB lookup. Deterministic choice:
// lowest local CID wins.
func (d *Device) anyConfigJobChannel() *channel {
	var best *channel
	for _, ch := range d.channels {
		if sm.JobOf(ch.m.State()) != sm.JobConfiguration {
			continue
		}
		if best == nil || ch.localCID < best.localCID {
			best = ch
		}
	}
	return best
}

func (d *Device) newChannel(psm l2cap.PSM, remote l2cap.CID) *channel {
	for d.channels[d.nextCID] != nil {
		d.nextCID++
		if d.nextCID < l2cap.CIDDynamicFirst {
			d.nextCID = l2cap.CIDDynamicFirst
		}
	}
	ch := &channel{
		localCID:  d.nextCID,
		remoteCID: remote,
		psm:       psm,
	}
	ch.m.Reset()
	d.channels[ch.localCID] = ch
	d.nextCID++
	if d.nextCID < l2cap.CIDDynamicFirst {
		d.nextCID = l2cap.CIDDynamicFirst
	}
	return ch
}

// closeChannel forgets ch, folding the states it occupied into
// closedVisited.
func (d *Device) closeChannel(ch *channel) {
	d.closedVisited.AddVisited(&ch.m)
	delete(d.channels, ch.localCID)
}

// maybeSendOwnConfig emits the stack's own Configuration Request when the
// profile is eager, driving the machine's local-send event. Even eager
// stacks stay reactive on the SDP channel: SDP is a client-driven
// service, so the server waits for the client's configuration first —
// which is exactly why single-port fuzzers that only ever touch SDP see
// fewer configuration states than L2Fuzz's multi-port sweep.
func (d *Device) maybeSendOwnConfig(h hci.ConnHandle, ch *channel) {
	if !d.cfg.Profile.SendsOwnConfigReq || ch.psm == l2cap.PSMSDP {
		return
	}
	d.sendOwnConfig(h, ch)
}

// sendOwnConfig unconditionally emits the stack's Configuration Request
// if the machine allows it in the current state.
func (d *Device) sendOwnConfig(h hci.ConnHandle, ch *channel) {
	if _, ok := ch.m.Apply(sm.EvLocalSendConfigReq); !ok {
		return
	}
	d.ownConfigReq.DCID = ch.remoteCID
	d.sendCmd(h, d.sigID(), &d.ownConfigReq, nil)
}

func (d *Device) sigID() uint8 {
	id := d.nextSigID
	d.nextSigID++
	if d.nextSigID == 0 {
		d.nextSigID = 1
	}
	return id
}

// rejectNotUnderstood answers the command with identifier id with a
// "command not understood" reject.
func (d *Device) rejectNotUnderstood(h hci.ConnHandle, id uint8) {
	d.reject.SetNotUnderstood()
	d.sendCmd(h, id, &d.reject, nil)
}

// rejectInvalidCID answers the command with identifier id with an
// "invalid CID" reject naming the (local, remote) endpoint pair.
func (d *Device) rejectInvalidCID(h hci.ConnHandle, id uint8, local, remote l2cap.CID) {
	d.reject.SetInvalidCID(local, remote)
	d.sendCmd(h, id, &d.reject, nil)
}

func (d *Device) sendCmd(h hci.ConnHandle, id uint8, cmd l2cap.Command, tail []byte) {
	if id == 0 {
		id = d.sigID()
	}
	payload, declared := l2cap.AppendSignalFrame(d.sigWire[:0], id, cmd, tail)
	d.sigWire = payload
	d.send(h, l2cap.Packet{
		Length:    uint16(min(declared, l2cap.MaxPayload)),
		ChannelID: l2cap.CIDSignaling,
		Payload:   payload,
	})
}

func (d *Device) send(h hci.ConnHandle, pkt l2cap.Packet) {
	// Send failures mean the link died mid-conversation; the device,
	// like real hardware, just moves on. The frame is marshaled into a
	// reused scratch buffer, fully delivered before the next send.
	d.txWire = pkt.AppendTo(d.txWire[:0])
	_ = d.ctrl.SendL2CAP(h, d.txWire)
}

func hasEFSOption(opts []l2cap.ConfigOption) bool {
	for _, o := range opts {
		if o.Type == l2cap.OptionExtendedFlowSpec {
			return true
		}
	}
	return false
}

// HandlerCoverage returns the per-handler invocation counts since
// construction: the simulated analogue of the limited code-coverage
// measurement §V cites Frankenstein for. The returned map is a copy.
func (d *Device) HandlerCoverage() map[string]int {
	out := make(map[string]int)
	for code, n := range d.handlerHits.byCode {
		if n > 0 {
			out[l2cap.CommandCode(code).String()] = n
		}
	}
	for name, n := range map[string]int{
		"SDP":         d.handlerHits.sdp,
		"RFCOMM":      d.handlerHits.rfcomm,
		"undecodable": d.handlerHits.undecodable,
	} {
		if n > 0 {
			out[name] = n
		}
	}
	return out
}
