package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

type payload struct {
	Name  string          `json:"name"`
	Index int             `json:"index"`
	Blob  []byte          `json:"blob,omitempty"`
	Raw   json.RawMessage `json:"raw,omitempty"`
}

func TestRoundTrip(t *testing.T) {
	msgs := []payload{
		{Name: "hello", Index: 0},
		{Name: "job", Index: 42, Blob: []byte{0x00, 0xff, 0x7f}},
		{Name: "result", Index: -1, Raw: json.RawMessage(`{"nested":[1,2,3]}`)},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	dec := NewDecoder(&buf)
	for i, want := range msgs {
		var got payload
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("message %d: got %+v, want %+v", i, got, want)
		}
	}
	var extra payload
	if err := dec.Decode(&extra); err != io.EOF {
		t.Fatalf("decode past end: got %v, want io.EOF", err)
	}
}

// TestFrameBytesGolden pins the on-the-wire framing: a 4-byte
// big-endian payload length followed by the JSON payload, nothing else.
// If this test fails, the wire format changed and old workers cannot
// talk to new coordinators.
func TestFrameBytesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(payload{Name: "pin", Index: 7}); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"name":"pin","index":7}`
	want := append([]byte{0x00, 0x00, 0x00, byte(len(wantJSON))}, wantJSON...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame bytes changed:\n got %q\nwant %q", buf.Bytes(), want)
	}
}

// TestEncodeIsMarshalFramed pins Encode's frame to json.Marshal's
// bytes: a 4-byte big-endian length, then exactly json.Marshal(v), HTML
// escaping included, with no trailing newline. Frame builds the same
// bytes. A value that does not marshal writes nothing and leaves the
// next frame clean.
func TestEncodeIsMarshalFramed(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, v := range []any{
		payload{Name: "<script>&amp;</script>\u2028\u2029", Index: 3},
		math.NaN(),
		map[string]any{"k": []int{1, 2, 3}, "s": "a&b"},
		payload{Name: "after", Index: -1},
	} {
		buf.Reset()
		err := enc.Encode(v)
		want, merr := json.Marshal(v)
		if merr != nil {
			if err == nil || buf.Len() != 0 {
				t.Errorf("unmarshalable %v: err %v, wrote %d bytes; want an error and nothing written", v, err, buf.Len())
			}
			continue
		}
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(want))), want...)
		if !bytes.Equal(buf.Bytes(), frame) {
			t.Errorf("Encode(%v) wrote\n %q\nwant\n %q", v, buf.Bytes(), frame)
		}
		if got, err := Frame(v); err != nil || !bytes.Equal(got, frame) {
			t.Errorf("Frame(%v) = %q, %v; want %q", v, got, err, frame)
		}
	}
}

func TestCleanEOF(t *testing.T) {
	var v payload
	if err := NewDecoder(strings.NewReader("")).Decode(&v); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	var v payload
	err := NewDecoder(bytes.NewReader([]byte{0x00, 0x00})).Decode(&v)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("partial header: got %v, want ErrTruncated", err)
	}
}

func TestTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(payload{Name: "cut", Index: 1}); err != nil {
		t.Fatal(err)
	}
	// Drop the final payload byte: the header still declares the full
	// length.
	cut := buf.Bytes()[:buf.Len()-1]
	var v payload
	if err := NewDecoder(bytes.NewReader(cut)).Decode(&v); !errors.Is(err, ErrTruncated) {
		t.Fatalf("cut payload: got %v, want ErrTruncated", err)
	}
}

// TestOversizedDeclaredLength rejects a lying header before reading any
// payload: the reader after the header must be untouched.
func TestOversizedDeclaredLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	r := bytes.NewReader(append(hdr[:], "payload that must not be read"...))
	var v payload
	if err := NewDecoder(r).Decode(&v); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized header: got %v, want ErrFrameTooLarge", err)
	}
	if r.Len() != len("payload that must not be read") {
		t.Fatalf("decoder consumed %d payload bytes of an oversized frame", len("payload that must not be read")-r.Len())
	}
}

func TestOversizedEncode(t *testing.T) {
	var buf bytes.Buffer
	// A MaxFrame-long string marshals to MaxFrame+2 bytes of JSON.
	err := NewEncoder(&buf).Encode(strings.Repeat("a", MaxFrame))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized encode: got %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized encode wrote %d bytes", buf.Len())
	}
	if _, err := Frame(strings.Repeat("a", MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
}

// FuzzDecoder drives the decoder with arbitrary byte streams: it must
// never panic, and every frame it does accept must re-encode to a
// decodable frame.
func FuzzDecoder(f *testing.F) {
	var seed bytes.Buffer
	enc := NewEncoder(&seed)
	enc.Encode(payload{Name: "seed", Index: 1})
	enc.Encode(map[string]any{"k": []int{1, 2, 3}})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, '{', '}'})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for {
			var v json.RawMessage
			err := dec.Decode(&v)
			if err == io.EOF {
				return
			}
			if err != nil {
				// Any mid-stream error ends the session; the decoder
				// makes no resynchronization promises past it.
				return
			}
			var buf bytes.Buffer
			if err := NewEncoder(&buf).Encode(v); err != nil {
				t.Fatalf("accepted frame %q does not re-encode: %v", v, err)
			}
			var back json.RawMessage
			if err := NewDecoder(&buf).Decode(&back); err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
		}
	})
}
