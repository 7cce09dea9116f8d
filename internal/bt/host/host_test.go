package host_test

import (
	"errors"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
)

func newRig(t *testing.T, profile device.Profile) (*radio.Medium, *device.Device, *host.Client) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	d, err := device.New(m, device.Config{
		Addr:    radio.MustBDAddr("F8:8F:CA:00:00:09"),
		Name:    "host-test-target",
		Profile: profile,
		Ports: []device.ServicePort{
			{PSM: l2cap.PSMAVDTP, Name: "AVDTP"},
			{PSM: l2cap.PSMRFCOMM, Name: "RFCOMM", RequiresPairing: true},
		},
		DisableVulns: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:02"), "host-test")
	if err != nil {
		t.Fatal(err)
	}
	return m, d, cl
}

func TestClientConnectIdempotent(t *testing.T) {
	_, d, cl := newRig(t, device.BlueDroidProfile("5.0", "fp"))
	if err := cl.Connect(d.Address()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Connect(d.Address()); err != nil {
		t.Fatalf("second Connect() error = %v, want idempotent nil", err)
	}
	if !cl.Connected(d.Address()) {
		t.Fatal("Connected() = false after Connect")
	}
}

func TestSendWithoutConnect(t *testing.T) {
	_, d, cl := newRig(t, device.BlueDroidProfile("5.0", "fp"))
	err := cl.Send(d.Address(), l2cap.SignalPacket(nil, 1, &l2cap.EchoReq{}, nil))
	if !errors.Is(err, host.ErrNotConnected) {
		t.Fatalf("Send() error = %v, want ErrNotConnected", err)
	}
}

func TestPingAgainstSilentAndDeadTargets(t *testing.T) {
	m, d, cl := newRig(t, device.BlueDroidProfile("5.0", "fp"))
	if err := cl.Connect(d.Address()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(d.Address()); err != nil {
		t.Fatalf("healthy ping error = %v", err)
	}
	// Vanish the device entirely: ping must fail, not hang.
	m.Unregister(d.Address())
	if err := cl.Ping(d.Address()); err == nil {
		t.Fatal("ping succeeded against a vanished device")
	}
}

func TestNextIDNeverZero(t *testing.T) {
	_, _, cl := newRig(t, device.IOSProfile("4.2"))
	for i := 0; i < 600; i++ {
		if cl.NextID() == 0 {
			t.Fatal("NextID() returned the illegal zero identifier")
		}
	}
}

func TestNextSourceCIDAlwaysDynamic(t *testing.T) {
	_, _, cl := newRig(t, device.IOSProfile("4.2"))
	for i := 0; i < 100; i++ {
		if cid := cl.NextSourceCID(); !cid.IsDynamic() {
			t.Fatalf("NextSourceCID() = %v, want dynamic", cid)
		}
	}
}

func TestTryOpenChannelVerdicts(t *testing.T) {
	_, d, cl := newRig(t, device.BlueDroidProfile("5.0", "fp"))
	if err := cl.Connect(d.Address()); err != nil {
		t.Fatal(err)
	}
	res, err := cl.TryOpenChannel(d.Address(), l2cap.PSMRFCOMM)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != l2cap.ConnResultSecurityBlock {
		t.Fatalf("pairing-gated port verdict = %v", res.Result)
	}
	res, err = cl.TryOpenChannel(d.Address(), l2cap.PSMAVDTP)
	if err != nil || res.Result != l2cap.ConnResultSuccess {
		t.Fatalf("open port verdict = (%+v, %v)", res, err)
	}
	if !res.RemoteCID.IsDynamic() {
		t.Errorf("allocated DCID %v not dynamic", res.RemoteCID)
	}
}

func TestOpenAndCloseChannelOnEagerAndStrictStacks(t *testing.T) {
	for name, p := range map[string]device.Profile{
		"eager (BlueDroid)": device.BlueDroidProfile("5.0", "fp"),
		"strict (iOS)":      device.IOSProfile("4.2"),
	} {
		t.Run(name, func(t *testing.T) {
			_, d, cl := newRig(t, p)
			if err := cl.Connect(d.Address()); err != nil {
				t.Fatal(err)
			}
			local, remote, err := cl.OpenChannel(d.Address(), l2cap.PSMAVDTP)
			if err != nil {
				t.Fatalf("OpenChannel() error = %v", err)
			}
			if err := cl.CloseChannel(d.Address(), local, remote); err != nil {
				t.Fatalf("CloseChannel() error = %v", err)
			}
		})
	}
}

func TestOpenChannelRefusedPort(t *testing.T) {
	_, d, cl := newRig(t, device.IOSProfile("4.2"))
	if err := cl.Connect(d.Address()); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.OpenChannel(d.Address(), 0x0F01)
	if !errors.Is(err, host.ErrChannelRefused) {
		t.Fatalf("OpenChannel(unknown PSM) error = %v, want ErrChannelRefused", err)
	}
}

func TestQuerySDPAcrossProfiles(t *testing.T) {
	for name, p := range map[string]device.Profile{
		"BlueDroid": device.BlueDroidProfile("5.0", "fp"),
		"BlueZ":     device.BlueZProfile("5.0", "fp"),
		"Windows":   device.WindowsProfile("5.0"),
	} {
		t.Run(name, func(t *testing.T) {
			_, d, cl := newRig(t, p)
			if err := cl.Connect(d.Address()); err != nil {
				t.Fatal(err)
			}
			services, err := cl.QuerySDP(d.Address())
			if err != nil {
				t.Fatalf("QuerySDP() error = %v", err)
			}
			if len(services) != 3 { // SDP + AVDTP + RFCOMM
				t.Fatalf("got %d services, want 3", len(services))
			}
		})
	}
}

func TestDrainCommandsSkipsDataPlane(t *testing.T) {
	_, d, cl := newRig(t, device.BlueDroidProfile("5.0", "fp"))
	if err := cl.Connect(d.Address()); err != nil {
		t.Fatal(err)
	}
	// An SDP transaction produces data-plane packets that DrainCommands
	// must not misparse as signaling.
	if _, err := cl.QuerySDP(d.Address()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SendCommand(d.Address(), &l2cap.EchoReq{}, nil); err != nil {
		t.Fatal(err)
	}
	cmds := cl.DrainCommands()
	if len(cmds) != 1 {
		t.Fatalf("DrainCommands() = %d commands, want exactly the echo response", len(cmds))
	}
	if _, ok := cmds[0].(*l2cap.EchoRsp); !ok {
		t.Fatalf("got %T, want *EchoRsp", cmds[0])
	}
}

func TestClockAccessor(t *testing.T) {
	m, _, cl := newRig(t, device.IOSProfile("4.2"))
	if cl.Clock() != m.Clock() {
		t.Fatal("client clock is not the medium clock")
	}
}
