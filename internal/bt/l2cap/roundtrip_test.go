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
		pkt := SignalPacket(id, cmd, nil)
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
	var req CreditBasedConnReq
	// 6 CIDs exceeds the 5-channel limit.
	data := make([]byte, 8+12)
	if err := req.UnmarshalData(data); !errors.Is(err, ErrBadCommand) {
		t.Errorf("6-CID list: error = %v, want ErrBadCommand", err)
	}
	// Odd-length CID list.
	data = make([]byte, 8+3)
	if err := req.UnmarshalData(data); !errors.Is(err, ErrBadCommand) {
		t.Errorf("odd CID list: error = %v, want ErrBadCommand", err)
	}
}
