package l2cap

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// newReject builds a CommandReject through one of its setters.
func newReject(set func(*CommandReject)) *CommandReject {
	r := &CommandReject{}
	set(r)
	return r
}

// sampleCommands returns a populated instance of every command type, with
// representative non-default values so round-trip tests exercise every
// field.
func sampleCommands() []Command {
	return []Command{
		&CommandReject{Reason: RejectNotUnderstood},
		newReject(func(r *CommandReject) { r.SetMTUExceeded(672) }),
		newReject(func(r *CommandReject) { r.SetInvalidCID(0x0040, 0x0041) }),
		&ConnectionReq{PSM: PSMRFCOMM, SCID: 0x0044},
		&ConnectionRsp{DCID: 0x0052, SCID: 0x0044, Result: ConnResultPending, Status: 1},
		&ConfigurationReq{DCID: 0x0052, Flags: 1, Options: []ConfigOption{
			MTUOption(1024), {Type: OptionFlushTimeout, Value: []byte{0xFF, 0xFF}},
		}},
		&ConfigurationRsp{SCID: 0x0044, Result: ConfigUnacceptableParams, Options: []ConfigOption{
			MTUOption(512),
		}},
		&DisconnectionReq{DCID: 0x0052, SCID: 0x0044},
		&DisconnectionRsp{DCID: 0x0052, SCID: 0x0044},
		&EchoReq{Data: []byte{1, 2, 3}},
		&EchoRsp{Data: []byte{1, 2, 3}},
		&InformationReq{InfoType: InfoTypeFixedChannels},
		&InformationRsp{InfoType: InfoTypeFixedChannels, Result: InfoResultSuccess, Data: []byte{0xFF, 0, 0, 0, 0, 0, 0, 0}},
		&CreateChannelReq{PSM: PSMAVDTP, SCID: 0x0060, ControllerID: 2},
		&CreateChannelRsp{DCID: 0x0070, SCID: 0x0060, Result: ConnResultSuccess, Status: 0},
		&MoveChannelReq{ICID: 0x0070, DestControllerID: 1},
		&MoveChannelRsp{ICID: 0x0070, Result: MoveResultPending},
		&MoveChannelConfirmReq{ICID: 0x0070, Result: MoveResultSuccess},
		&MoveChannelConfirmRsp{ICID: 0x0070},
		&ConnParamUpdateReq{IntervalMin: 6, IntervalMax: 3200, Latency: 4, Timeout: 600},
		&ConnParamUpdateRsp{Result: 1},
		&LECreditConnReq{SPSM: 0x0080, SCID: 0x0040, MTU: 256, MPS: 64, InitialCredits: 10},
		&LECreditConnRsp{DCID: 0x0041, MTU: 256, MPS: 64, InitialCredits: 10, Result: 0},
		&FlowControlCredit{CID: 0x0041, Credits: 5},
		&CreditBasedConnReq{SPSM: 0x0080, MTU: 128, MPS: 64, InitialCredits: 2, SCIDs: []CID{0x0040, 0x0041, 0x0042}},
		&CreditBasedConnRsp{MTU: 128, MPS: 64, InitialCredits: 2, Result: 0, DCIDs: []CID{0x0050, 0x0051, 0x0052}},
		&CreditBasedReconfReq{MTU: 256, MPS: 128, DCIDs: []CID{0x0050}},
		&CreditBasedReconfRsp{Result: 0},
	}
}

func TestEveryCommandRoundTrips(t *testing.T) {
	for _, cmd := range sampleCommands() {
		t.Run(cmd.Code().String(), func(t *testing.T) {
			data := cmd.AppendData(nil)
			fresh, err := newCommand(cmd.Code())
			if err != nil {
				t.Fatalf("newCommand() error = %v", err)
			}
			if err := fresh.UnmarshalData(data); err != nil {
				t.Fatalf("UnmarshalData() error = %v", err)
			}
			if !reflect.DeepEqual(normalize(cmd), normalize(fresh)) {
				t.Fatalf("round trip mismatch:\n got  %#v\n want %#v", fresh, cmd)
			}
		})
	}
}

// normalize maps nil slices to empty slices so DeepEqual compares values,
// not allocation history.
func normalize(cmd Command) Command {
	v := reflect.ValueOf(cmd).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Slice && f.IsNil() && f.CanSet() {
			f.Set(reflect.MakeSlice(f.Type(), 0, 0))
		}
	}
	return cmd
}

func TestEveryCommandRoundTripsThroughSignalPacket(t *testing.T) {
	for i, cmd := range sampleCommands() {
		id := uint8(i + 1)
		pkt := SignalPacket(nil, id, cmd, nil)
		raw := pkt.AppendTo(nil)

		decoded, err := ParsePacket(raw)
		if err != nil {
			t.Fatalf("%v: ParsePacket() error = %v", cmd.Code(), err)
		}
		frames, err := ParseSignals(decoded.Payload)
		if err != nil {
			t.Fatalf("%v: ParseSignals() error = %v", cmd.Code(), err)
		}
		if len(frames) != 1 {
			t.Fatalf("%v: len(frames) = %d, want 1", cmd.Code(), len(frames))
		}
		if frames[0].Identifier != id {
			t.Errorf("%v: identifier = %d, want %d", cmd.Code(), frames[0].Identifier, id)
		}
		out, err := DecodeCommand(frames[0])
		if err != nil {
			t.Fatalf("%v: DecodeCommand() error = %v", cmd.Code(), err)
		}
		if out.Code() != cmd.Code() {
			t.Errorf("decoded code = %v, want %v", out.Code(), cmd.Code())
		}
		if !bytes.Equal(out.AppendData(nil), cmd.AppendData(nil)) {
			t.Errorf("%v: re-marshal mismatch", cmd.Code())
		}
	}
}

func TestDefaultCommandForEveryCode(t *testing.T) {
	for _, code := range AllCommandCodes() {
		cmd, err := DefaultCommand(code)
		if err != nil {
			t.Fatalf("DefaultCommand(%v) error = %v", code, err)
		}
		if cmd.Code() != code {
			t.Errorf("DefaultCommand(%v).Code() = %v", code, cmd.Code())
		}
		// Defaults must round-trip too.
		fresh, err := newCommand(code)
		if err != nil {
			t.Fatalf("newCommand(%v) error = %v", code, err)
		}
		if err := fresh.UnmarshalData(cmd.AppendData(nil)); err != nil {
			t.Errorf("default %v does not round-trip: %v", code, err)
		}
	}
	if _, err := DefaultCommand(0x99); !errors.Is(err, ErrUnknownCode) {
		t.Errorf("DefaultCommand(0x99) error = %v, want ErrUnknownCode", err)
	}
}

func TestFixedSizeCommandsRejectWrongLengths(t *testing.T) {
	fixed := []Command{
		&ConnectionReq{}, &ConnectionRsp{}, &DisconnectionReq{},
		&DisconnectionRsp{}, &InformationReq{}, &CreateChannelReq{},
		&CreateChannelRsp{}, &MoveChannelReq{}, &MoveChannelRsp{},
		&MoveChannelConfirmReq{}, &MoveChannelConfirmRsp{},
		&ConnParamUpdateReq{}, &ConnParamUpdateRsp{},
		&LECreditConnReq{}, &LECreditConnRsp{}, &FlowControlCredit{},
		&CreditBasedReconfRsp{},
	}
	for _, cmd := range fixed {
		want := len(cmd.AppendData(nil))
		for _, n := range []int{want - 1, want + 1} {
			if n < 0 {
				continue
			}
			err := cmd.UnmarshalData(make([]byte, n))
			if !errors.Is(err, ErrBadCommand) {
				t.Errorf("%v: UnmarshalData(%d bytes) error = %v, want ErrBadCommand",
					cmd.Code(), n, err)
			}
		}
	}
}

func TestCommandRejectReasonDataValidation(t *testing.T) {
	tests := []struct {
		name    string
		data    []byte
		wantErr bool
	}{
		{name: "not understood no data", data: []byte{0x00, 0x00}, wantErr: false},
		{name: "mtu exceeded right size", data: []byte{0x01, 0x00, 0xA0, 0x02}, wantErr: false},
		{name: "mtu exceeded wrong size", data: []byte{0x01, 0x00, 0xA0}, wantErr: true},
		{name: "invalid cid right size", data: []byte{0x02, 0x00, 0x40, 0x00, 0x41, 0x00}, wantErr: false},
		{name: "invalid cid wrong size", data: []byte{0x02, 0x00, 0x40, 0x00}, wantErr: true},
		{name: "too short for reason", data: []byte{0x00}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var c CommandReject
			err := c.UnmarshalData(tt.data)
			if (err != nil) != tt.wantErr {
				t.Fatalf("UnmarshalData() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestECREDChannelListValidation(t *testing.T) {
	for _, tt := range []struct {
		cmd   Command
		fixed int // bytes before the CID list
	}{
		{&CreditBasedConnReq{}, 8},
		{&CreditBasedConnRsp{}, 8},
		{&CreditBasedReconfReq{}, 4},
	} {
		// 6 CIDs exceeds the 5-channel limit.
		if err := tt.cmd.UnmarshalData(make([]byte, tt.fixed+12)); !errors.Is(err, ErrBadCommand) {
			t.Errorf("%v, 6-CID list: error = %v, want ErrBadCommand", tt.cmd.Code(), err)
		}
		// Odd-length CID list.
		if err := tt.cmd.UnmarshalData(make([]byte, tt.fixed+3)); !errors.Is(err, ErrBadCommand) {
			t.Errorf("%v, odd CID list: error = %v, want ErrBadCommand", tt.cmd.Code(), err)
		}
	}
}

// TestECREDDecodesInPlace pins the enhanced credit-based decoders' CID
// lists to the command's own slice: a reused Decoder that decodes a
// five-CID command and then a two-CID one returns exactly the two, in
// the first list's backing array, and a warm decode allocates nothing.
func TestECREDDecodesInPlace(t *testing.T) {
	five := []CID{0x0040, 0x0041, 0x0042, 0x0043, 0x0044}
	two := []CID{0x0050, 0x0051}
	for _, tt := range []struct {
		long, short Command
		cids        func(Command) []CID
	}{
		{
			&CreditBasedConnReq{SPSM: 0x0080, MTU: 64, MPS: 64, InitialCredits: 1, SCIDs: five},
			&CreditBasedConnReq{SPSM: 0x0080, MTU: 64, MPS: 64, InitialCredits: 1, SCIDs: two},
			func(c Command) []CID { return c.(*CreditBasedConnReq).SCIDs },
		},
		{
			&CreditBasedConnRsp{MTU: 64, MPS: 64, InitialCredits: 1, DCIDs: five},
			&CreditBasedConnRsp{MTU: 64, MPS: 64, InitialCredits: 1, DCIDs: two},
			func(c Command) []CID { return c.(*CreditBasedConnRsp).DCIDs },
		},
		{
			&CreditBasedReconfReq{MTU: 64, MPS: 64, DCIDs: five},
			&CreditBasedReconfReq{MTU: 64, MPS: 64, DCIDs: two},
			func(c Command) []CID { return c.(*CreditBasedReconfReq).DCIDs },
		},
	} {
		t.Run(tt.long.Code().String(), func(t *testing.T) {
			long := Frame{Code: tt.long.Code(), Identifier: 1, Data: tt.long.AppendData(nil)}
			short := Frame{Code: tt.short.Code(), Identifier: 2, Data: tt.short.AppendData(nil)}
			var dec Decoder
			cmd, err := dec.Decode(long)
			if err != nil {
				t.Fatal(err)
			}
			first := tt.cids(cmd)
			if !reflect.DeepEqual(first, five) {
				t.Fatalf("five-CID decode = %v, want %v", first, five)
			}
			if cmd, err = dec.Decode(short); err != nil {
				t.Fatal(err)
			}
			second := tt.cids(cmd)
			if !reflect.DeepEqual(second, two) {
				t.Fatalf("two-CID decode after a five-CID one = %v, want exactly %v", second, two)
			}
			if &second[0] != &first[0] {
				t.Fatal("the two-CID list was not decoded into the command's own slice")
			}
			warm := func() {
				_, _ = dec.Decode(long)
				_, _ = dec.Decode(short)
			}
			if n := testing.AllocsPerRun(100, warm); n != 0 {
				t.Fatalf("warm decode allocates %.1f times", n)
			}
		})
	}
}
