// Package wire implements the framing the farm's process-isolated
// executor speaks with its worker subprocesses: length-prefixed JSON
// messages over a byte stream (the workers' stdin/stdout pipes).
//
// A frame is a 4-byte big-endian payload length followed by exactly
// that many bytes of JSON. The length prefix makes message boundaries
// explicit — a reader never depends on JSON self-termination, so a
// worker that dies mid-message leaves a detectably truncated frame
// instead of a silently mis-parsed one — and caps resource use: a
// declared length above MaxFrame is rejected before any allocation.
//
// The package frames; it does not define the messages. The farm's
// protocol structs (hello, farm config, job, result) live in the fleet
// package, built on the record types of internal/fleet/record, and
// their schema is pinned by a golden test there.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds one frame's payload. Results carrying full repro
// traces are the largest messages: a recorded op takes about 50 bytes
// of JSON and a job records about one op per packet, so a trace at the
// library's default per-job budget of 250,000 packets is about 12.6 MB,
// a fifth of this, and a single trace epoch reaches it near 1.3 M ops.
const MaxFrame = 64 << 20

var (
	// ErrFrameTooLarge reports a frame whose declared or actual payload
	// exceeds MaxFrame. The check runs before the payload is read, so a
	// corrupt length prefix cannot drive allocation.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrTruncated reports a stream that ended inside a frame — a
	// partial length prefix or fewer payload bytes than declared. A
	// stream ending cleanly between frames is io.EOF, not this.
	ErrTruncated = errors.New("wire: truncated frame")
)

// headerSize is the length prefix width.
const headerSize = 4

// Encoder writes framed JSON messages to a stream. Each message is
// encoded once, into a frame buffer the encoder owns, and each Encode
// issues one Write, so a frame is never interleaved with other output
// on the same descriptor. Not safe for concurrent use.
type Encoder struct {
	w   io.Writer
	buf frameBuffer
	enc *json.Encoder
}

// frameBuffer is a byte slice as an io.Writer, so a json.Encoder
// appends a payload to it in place.
type frameBuffer struct{ b []byte }

func (f *frameBuffer) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// NewEncoder returns an encoder framing onto w.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: w}
	e.enc = json.NewEncoder(&e.buf)
	return e
}

// Encode marshals v and writes it as one frame. A value that does not
// marshal, or marshals past MaxFrame, writes nothing.
func (e *Encoder) Encode(v any) error {
	if err := e.frame(v); err != nil {
		return err
	}
	return e.WriteFrame(e.buf.b)
}

// Frame marshals v into one complete frame, for a message written
// unchanged to many streams with WriteFrame: it is encoded once, not
// once per stream.
func Frame(v any) ([]byte, error) {
	e := NewEncoder(nil)
	if err := e.frame(v); err != nil {
		return nil, err
	}
	return e.buf.b, nil
}

// WriteFrame writes a frame built by Frame in one Write.
func (e *Encoder) WriteFrame(frame []byte) error {
	if _, err := e.w.Write(frame); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// frame encodes v's frame into e's buffer: a reserved length prefix,
// then the payload, then the payload's length patched into the prefix.
// The payload is json.Marshal's bytes of v.
func (e *Encoder) frame(v any) error {
	e.buf.b = append(e.buf.b[:0], make([]byte, headerSize)...)
	if err := e.enc.Encode(v); err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	// Encode ends the payload with a newline json.Marshal does not
	// write: drop it.
	e.buf.b = e.buf.b[:len(e.buf.b)-1]
	n := len(e.buf.b) - headerSize
	if n > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(e.buf.b, uint32(n))
	return nil
}

// Decoder reads framed JSON messages from a stream. Not safe for
// concurrent use.
type Decoder struct {
	r       io.Reader
	scratch bytes.Buffer
}

// NewDecoder returns a decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Decode reads the next frame and unmarshals it into v. A stream
// ending cleanly between frames returns io.EOF; one ending inside a
// frame returns ErrTruncated; a declared length above MaxFrame returns
// ErrFrameTooLarge without reading the payload.
func (d *Decoder) Decode(v any) error {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return ErrTruncated
		}
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("%w: %d bytes declared", ErrFrameTooLarge, n)
	}
	// Copy through a growing buffer rather than allocating the declared
	// length up front: the buffer grows only as payload bytes actually
	// arrive, so a lying header costs nothing.
	d.scratch.Reset()
	if _, err := io.CopyN(&d.scratch, d.r, int64(n)); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrTruncated
		}
		return err
	}
	if err := json.Unmarshal(d.scratch.Bytes(), v); err != nil {
		return fmt.Errorf("wire: unmarshal: %w", err)
	}
	return nil
}
