package corpus

import (
	"encoding/base64"
	"encoding/json"

	"l2fuzz/internal/bt/host"
)

// Ops is a trace's ordered operation sequence: a []Op that loads in two
// allocations. UnmarshalJSON decodes a stored array into one
// exactly-sized op slice whose send data share one exactly-sized
// buffer, where json.Unmarshal into []Op would make a Data slice and a
// Kind string per op.
type Ops []Op

// UnmarshalJSON decodes a JSON array of ops with exactly json.Unmarshal's
// result for []Op: null gives nil, [] an empty non-nil slice, an absent
// "data" nil Data and "data": "" empty non-nil Data.
//
// The fast path takes the layout Store.Put and json.Marshal write, in
// any JSON whitespace: objects whose keys are exactly "op" and then an
// optional "data", whose kind is one of the host.Trace* kinds and whose
// data is padded base64 without escapes. It walks the array once to
// size the op slice and the data buffer, and again to fill them: each
// send's Data is a capacity-clipped sub-slice of the buffer, as in
// host.TraceRecorder.Snapshot, and no op aliases data. Anything else —
// escapes, other or duplicate keys, "data": null, unknown kinds, bad
// padding, a slice that already holds ops — goes to json.Unmarshal.
func (o *Ops) UnmarshalJSON(data []byte) error {
	if len(*o) == 0 {
		if n, size, ok := scanOps(data, nil, nil); ok {
			ops, buf := make(Ops, n), make([]byte, size)
			if _, _, ok := scanOps(data, ops, buf); ok {
				*o = ops
				return nil
			}
		}
	}
	return json.Unmarshal(data, (*[]Op)(o))
}

// scanOps walks data in the fast path's layout and returns the op count
// and the decoded size of their data, or ok false for anything else.
// Given ops and buf sized by a first walk, it also fills them.
func scanOps(data []byte, ops []Op, buf []byte) (n, size int, ok bool) {
	s := opsScanner{data: data}
	if !s.token('[') {
		return 0, 0, false
	}
	if s.token(']') {
		return 0, 0, s.end()
	}
	for {
		if !s.token('{') || !s.key("op") {
			return 0, 0, false
		}
		var kind host.TraceOpKind
		switch str, _ := s.str(); string(str) {
		case string(host.TraceConnect):
			kind = host.TraceConnect
		case string(host.TraceDisconnect):
			kind = host.TraceDisconnect
		case string(host.TraceSend):
			kind = host.TraceSend
		default:
			return 0, 0, false
		}
		var enc []byte
		m, hasData := 0, s.token(',')
		if hasData {
			if !s.key("data") {
				return 0, 0, false
			}
			if enc, ok = s.str(); !ok {
				return 0, 0, false
			}
			if m, ok = decodedLen(enc); !ok {
				return 0, 0, false
			}
		}
		if !s.token('}') {
			return 0, 0, false
		}
		if ops != nil {
			ops[n].Kind = kind
			if hasData {
				d := buf[size : size+m : size+m]
				if got, err := base64.StdEncoding.Decode(d, enc); err != nil || got != m {
					return 0, 0, false
				}
				ops[n].Data = d
			}
		}
		n++
		size += m
		if s.token(']') {
			return n, size, s.end()
		}
		if !s.token(',') {
			return 0, 0, false
		}
	}
}

// decodedLen returns the exact decoded length of padded base64 made
// only of the standard alphabet and at most two trailing '=', or ok
// false for any other string, whose decoding json.Unmarshal judges.
func decodedLen(enc []byte) (int, bool) {
	if len(enc)%4 != 0 {
		return 0, false
	}
	pad := 0
	for pad < 2 && pad < len(enc) && enc[len(enc)-1-pad] == '=' {
		pad++
	}
	for _, c := range enc[:len(enc)-pad] {
		if !base64Alphabet[c] {
			return 0, false
		}
	}
	return len(enc)/4*3 - pad, true
}

// base64Alphabet marks the bytes of the standard base64 alphabet.
var base64Alphabet = func() (set [256]bool) {
	for _, c := range []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/") {
		set[c] = true
	}
	return set
}()

// opsScanner reads the fast path's tokens. A string is read up to the
// next quote, escapes and all: no escaped string matches a kind or
// passes decodedLen, so one that holds an escape falls back.
type opsScanner struct {
	data []byte
	i    int
}

// space skips JSON whitespace.
func (s *opsScanner) space() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// token consumes c after whitespace and reports whether it was there.
func (s *opsScanner) token(c byte) bool {
	s.space()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string after whitespace and returns its raw content.
func (s *opsScanner) str() ([]byte, bool) {
	if !s.token('"') {
		return nil, false
	}
	for j := s.i; j < len(s.data); j++ {
		if s.data[j] == '"' {
			str := s.data[s.i:j]
			s.i = j + 1
			return str, true
		}
	}
	return nil, false
}

// key consumes the object key k and its colon.
func (s *opsScanner) key(k string) bool {
	str, ok := s.str()
	return ok && string(str) == k && s.token(':')
}

// end reports whether only whitespace is left.
func (s *opsScanner) end() bool {
	s.space()
	return s.i == len(s.data)
}
