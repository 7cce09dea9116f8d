package l2cap

import "fmt"

// OptionType identifies a configuration option carried by Configuration
// Request/Response commands (Vol 3 Part A §5). In the paper's field
// classification all option payloads are mutable-application (MA) fields
// — MTU, FLAGS, QoS, OPT — which L2Fuzz keeps at default values.
type OptionType uint8

// Configuration option types.
const (
	// OptionMTU negotiates the incoming MTU.
	OptionMTU OptionType = 0x01
	// OptionFlushTimeout negotiates the flush timeout.
	OptionFlushTimeout OptionType = 0x02
	// OptionQoS negotiates quality-of-service parameters.
	OptionQoS OptionType = 0x03
	// OptionRetransmissionAndFlowControl negotiates mode parameters.
	OptionRetransmissionAndFlowControl OptionType = 0x04
	// OptionFCS negotiates the frame-check-sequence type.
	OptionFCS OptionType = 0x05
	// OptionExtendedFlowSpec negotiates an extended flow specification.
	OptionExtendedFlowSpec OptionType = 0x06
	// OptionExtendedWindowSize negotiates the extended window size.
	OptionExtendedWindowSize OptionType = 0x07
	// optionHintBit marks an option as a hint: unknown hints are skipped
	// rather than rejected.
	optionHintBit = 0x80
)

// ConfigOption is one type-length-value configuration option.
type ConfigOption struct {
	// Type identifies the option; bit 7 marks it as a hint.
	Type OptionType
	// Value is the option payload.
	Value []byte
}

// MTUOption builds the MTU configuration option.
func MTUOption(mtu uint16) ConfigOption {
	return ConfigOption{Type: OptionMTU, Value: putU16(nil, mtu)}
}

// appendOptions encodes options in order.
func appendOptions(dst []byte, opts []ConfigOption) []byte {
	for _, o := range opts {
		dst = append(dst, uint8(o.Type), uint8(len(o.Value)))
		dst = append(dst, o.Value...)
	}
	return dst
}

// AppendParsedOptions decodes a configuration-option list onto dst and
// returns the extended slice. Unknown option types decode structurally
// (type, length, value) so a fuzzer's garbage options are observable; a
// length that overruns the buffer is an error, and on error dst comes back
// unchanged. Option values alias data (borrow semantics): callers that
// retain them past the buffer's lifetime must copy.
func AppendParsedOptions(dst []ConfigOption, data []byte) ([]ConfigOption, error) {
	opts := dst
	off := 0
	for off < len(data) {
		if len(data)-off < 2 {
			return dst, fmt.Errorf("%w: truncated option header at offset %d",
				ErrBadCommand, off)
		}
		t := OptionType(data[off])
		n := int(data[off+1])
		off += 2
		if n > len(data)-off {
			return dst, fmt.Errorf("%w: option 0x%02X length %d overruns payload",
				ErrBadCommand, uint8(t), n)
		}
		opts = append(opts, ConfigOption{
			Type:  t,
			Value: data[off : off+n : off+n],
		})
		off += n
	}
	return opts, nil
}
