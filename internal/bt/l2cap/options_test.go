package l2cap

import (
	"bytes"
	"errors"
	"testing"
)

func TestOptionsRoundTrip(t *testing.T) {
	in := []ConfigOption{
		MTUOption(1024),
		{Type: OptionFlushTimeout, Value: []byte{0xFF, 0xFF}},
		{Type: OptionFCS, Value: []byte{0x01}},
		{Type: OptionQoS, Value: make([]byte, 22)},
		{Type: 0x55 | 0x80, Value: []byte{1, 2, 3}}, // unknown hint
	}
	out, err := AppendParsedOptions(nil, appendOptions(nil, in))
	if err != nil {
		t.Fatalf("AppendParsedOptions() error = %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("len(out) = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Type != in[i].Type || !bytes.Equal(out[i].Value, in[i].Value) {
			t.Errorf("option[%d] = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestParseOptionsErrors(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{name: "truncated header", data: []byte{0x01}},
		{name: "length overrun", data: []byte{0x01, 0x05, 0x00}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := AppendParsedOptions(nil, tt.data); !errors.Is(err, ErrBadCommand) {
				t.Fatalf("AppendParsedOptions() error = %v, want ErrBadCommand", err)
			}
		})
	}
}

func TestParseOptionsEmpty(t *testing.T) {
	opts, err := AppendParsedOptions(nil, nil)
	if err != nil {
		t.Fatalf("AppendParsedOptions(nil, nil) error = %v", err)
	}
	if len(opts) != 0 {
		t.Fatalf("len(opts) = %d, want 0", len(opts))
	}
}
