package l2cap

import (
	"bytes"
	"testing"
)

// FuzzAppendParsedOptions checks the configuration-option decoder
// against its encoder: a list AppendParsedOptions accepts re-encodes to
// exactly the input bytes, and a list it rejects leaves the caller's dst
// as it was.
func FuzzAppendParsedOptions(f *testing.F) {
	f.Add(appendOptions(nil, []ConfigOption{MTUOption(672), {Type: OptionFlushTimeout, Value: []byte{0xFF, 0xFF}}}))
	f.Add(appendOptions(nil, []ConfigOption{{Type: OptionQoS, Value: make([]byte, 22)}}))
	f.Add(appendOptions(nil, []ConfigOption{{Type: 0x55 | optionHintBit, Value: []byte{1, 2, 3}}}))
	f.Add([]byte{byte(OptionMTU)})             // truncated header
	f.Add([]byte{byte(OptionMTU), 0x05, 0x00}) // value overruns the list
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		opts, err := AppendParsedOptions(nil, b)
		if err == nil {
			if got := appendOptions(nil, opts); !bytes.Equal(got, b) {
				t.Fatalf("re-encoded options differ from the input\n got %x\nwant %x", got, b)
			}
			return
		}
		if opts != nil {
			t.Fatalf("failed decode onto nil returned %d options", len(opts))
		}
		dst := append(make([]ConfigOption, 0, 4), MTUOption(672))
		out, err := AppendParsedOptions(dst, b)
		if err == nil {
			t.Fatal("decode onto a non-empty dst succeeded where decode onto nil failed")
		}
		if len(out) != len(dst) || cap(out) != cap(dst) || &out[0] != &dst[0] {
			t.Fatalf("failed decode returned len %d cap %d, want dst (len %d cap %d)",
				len(out), cap(out), len(dst), cap(dst))
		}
		if o := out[0]; o.Type != OptionMTU || len(o.Value) != 2 || getU16(o.Value, 0) != 672 {
			t.Fatalf("failed decode changed dst[0] to %+v", out[0])
		}
	})
}
