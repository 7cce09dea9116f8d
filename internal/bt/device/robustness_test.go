package device

import (
	"math/rand"
	"testing"
	"testing/quick"

	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/rfcomm"
)

// TestQuickDeviceNeverPanicsOnArbitraryPackets is the reproduction's own
// safety net: every vendor stack must survive arbitrary L2CAP payloads
// (signaling or data) without panicking, whatever testing/quick throws
// at it. The vulnerable stacks may "crash" in the simulated sense —
// that is their job — but the Go process must not.
func TestQuickDeviceNeverPanicsOnArbitraryPackets(t *testing.T) {
	profiles := []Profile{
		BlueDroidProfile("5.0", "fp", BlueDroidCCBNullDeref(0x40, 1, true)),
		BlueZProfile("5.0", "fp"),
		IOSProfile("4.2"),
		RTKitProfile("4.2", RTKitPSMServiceKill(0, 0)),
		BTWProfile("5.0"),
		WindowsProfile("5.0"),
	}
	for i, p := range profiles {
		m := radio.NewMedium(nil, radio.DefaultTiming())
		cfg := Config{
			Addr:    radio.BDAddr{0xF8, 0x8F, 0xCA, 0, 0, byte(i + 1)},
			Name:    "fuzz-target",
			Profile: p,
			Ports: []ServicePort{
				{PSM: l2cap.PSMAVDTP, Name: "AVDTP"},
			},
			RFCOMMServices: []rfcomm.Service{{Channel: 1, Name: "SPP"}},
		}
		d, err := New(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tester, err := newRawSender(m, radio.BDAddr{0, 0x1B, 0xDC, 0, 0, byte(i + 1)}, d.Address())
		if err != nil {
			t.Fatal(err)
		}

		f := func(cid uint16, payload []byte) bool {
			if d.Crashed() {
				if err := d.Reset(); err != nil {
					t.Fatal(err)
				}
				tester.reconnect()
			}
			pkt := l2cap.NewPacket(l2cap.CID(cid), payload)
			tester.send(pkt.AppendTo(nil))
			// Also deliver with a lying declared length (garbage shape).
			if len(payload) > 2 {
				lying := pkt
				lying.Length = uint16(len(payload) - 2)
				tester.send(lying.AppendTo(nil))
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{
			MaxCount: 400,
			Rand:     rand.New(rand.NewSource(int64(i))),
		}); err != nil {
			t.Fatalf("profile %s: %v", p.Stack, err)
		}
	}
}

// rawSender delivers raw bytes to a device without host-client framing
// niceties, so corrupted basic headers reach the stack too.
type rawSender struct {
	m      *radio.Medium
	addr   radio.BDAddr
	target radio.BDAddr
}

type rawEndpoint struct{ addr radio.BDAddr }

func (r *rawEndpoint) Address() radio.BDAddr                     { return r.addr }
func (r *rawEndpoint) ReceiveFrame(radio.BDAddr, []byte)         {}
func (r *rawEndpoint) Connectable() bool                         { return true }
func (r *rawEndpoint) Discoverable() (radio.InquiryResult, bool) { return radio.InquiryResult{}, false }

func newRawSender(m *radio.Medium, addr, target radio.BDAddr) (*rawSender, error) {
	if err := m.Register(&rawEndpoint{addr: addr}); err != nil {
		return nil, err
	}
	s := &rawSender{m: m, addr: addr, target: target}
	s.reconnect()
	return s, nil
}

func (s *rawSender) reconnect() {
	_ = s.m.Page(s.addr, s.target)
}

func (s *rawSender) send(l2capFrame []byte) {
	// Wrap in a single ACL first-fragment, as the controller would.
	hf := uint16(0x0001) | 0b10<<12
	frame := []byte{byte(hf), byte(hf >> 8), byte(len(l2capFrame)), byte(len(l2capFrame) >> 8)}
	frame = append(frame, l2capFrame...)
	_ = s.m.Carry(s.addr, s.target, frame)
}
