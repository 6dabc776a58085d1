package serve

import (
	"bytes"
	"math"
	"strconv"
	"time"
)

// The infer codec encodes and decodes the two POST /v1/infer bodies in
// their canonical form only: exact lower-case keys, ASCII strings with
// no escapes, integers. It declines anything else (ok false) to the
// unchanged encoding/json path, so its bytes and structs are
// encoding/json's by construction (FuzzInferJSON checks). It declines
// where encoding/json does what a naive codec would not: encoding a
// string with a byte below 0x20 or from 0x80 or one of `"\<>&` (escaped,
// HTML-escaped, UTF-8 repaired), and decoding a key that is not an exact
// field name (encoding/json folds case), null, an escape, a fraction or
// exponent, an integer out of its field's range, or anything but
// whitespace after '}'. A repeated key keeps its last value, as in
// encoding/json. Decoded strings are copies: the buffers are pooled.

// appendInferRequest appends json.Marshal(r)'s bytes to b.
func appendInferRequest(b []byte, r *InferRequest) ([]byte, bool) {
	if !plainString(r.Model) || !plainString(r.Tenant) {
		return b, false
	}
	b = appendString(b, `{"model":`, r.Model, false)
	b = appendInt(b, `,"slo_ns":`, int64(r.SLO), false)
	b = appendInt(b, `,"priority":`, int64(r.Priority), true)
	b = appendString(b, `,"tenant":`, r.Tenant, true)
	b = appendInt(b, `,"max_batch_size":`, int64(r.MaxBatchSize), true)
	return append(b, '}'), true
}

// appendInferResponse appends what json.Encoder.Encode(r) writes,
// trailing newline included, to b.
func appendInferResponse(b []byte, r *InferResponse) ([]byte, bool) {
	if !plainString(r.Model) || !plainString(r.Tenant) || !plainString(r.Reason) {
		return b, false
	}
	b = strconv.AppendUint(append(b, `{"request_id":`...), r.RequestID, 10)
	b = appendString(b, `,"model":`, r.Model, false)
	b = appendString(b, `,"tenant":`, r.Tenant, true)
	b = strconv.AppendBool(append(b, `,"success":`...), r.Success)
	b = appendString(b, `,"reason":`, r.Reason, true)
	b = appendInt(b, `,"reason_code":`, int64(r.ReasonCode), true)
	b = appendInt(b, `,"latency_ns":`, int64(r.Latency), false)
	b = appendInt(b, `,"batch":`, int64(r.Batch), true)
	if r.ColdStart {
		b = append(b, `,"cold_start":true`...)
	}
	return append(b, "}\n"...), true
}

// plainString reports whether encoding/json writes s between its quotes
// byte for byte.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendString appends key and the quoted s, unless omitEmpty and s is
// empty (the omitempty tag).
func appendString(b []byte, key, s string, omitEmpty bool) []byte {
	if omitEmpty && s == "" {
		return b
	}
	return append(append(append(append(b, key...), '"'), s...), '"')
}

// appendInt appends key and n, unless omitEmpty and n is zero.
func appendInt(b []byte, key string, n int64, omitEmpty bool) []byte {
	if omitEmpty && n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), n, 10)
}

// parseInferRequest decodes data as json.Unmarshal would into a zero
// InferRequest; declining, it returns the zero value.
func parseInferRequest(data []byte) (InferRequest, bool) {
	var v InferRequest
	s := scanner{b: data}
	for s.next() {
		switch string(s.key) {
		case "model":
			v.Model = s.str()
		case "slo_ns":
			v.SLO = time.Duration(s.int(64))
		case "priority":
			v.Priority = int(s.int(strconv.IntSize))
		case "tenant":
			v.Tenant = s.str()
		case "max_batch_size":
			v.MaxBatchSize = int(s.int(strconv.IntSize))
		default:
			s.bad = true
		}
	}
	if !s.done() {
		return InferRequest{}, false
	}
	return v, true
}

// parseInferResponse decodes data as json.Unmarshal would into a zero
// InferResponse; declining, it returns the zero value.
func parseInferResponse(data []byte) (InferResponse, bool) {
	var v InferResponse
	s := scanner{b: data}
	for s.next() {
		switch string(s.key) {
		case "request_id":
			v.RequestID = s.uint(math.MaxUint64)
		case "model":
			v.Model = s.str()
		case "tenant":
			v.Tenant = s.str()
		case "success":
			v.Success = s.bool()
		case "reason":
			v.Reason = s.str()
		case "reason_code":
			v.ReasonCode = uint8(s.uint(math.MaxUint8))
		case "latency_ns":
			v.Latency = time.Duration(s.int(64))
		case "batch":
			v.Batch = int(s.int(strconv.IntSize))
		case "cold_start":
			v.ColdStart = s.bool()
		default:
			s.bad = true
		}
	}
	if !s.done() {
		return InferResponse{}, false
	}
	return v, true
}

// scanner walks one canonical JSON object member by member. The first
// byte it does not expect sets bad, after which next and done report
// false, so a decoder checks once, at the end; what a value reader
// returns once bad is set is discarded.
type scanner struct {
	b   []byte
	i   int
	key []byte // the current member's key, a view into b
	bad bool
}

// next moves to the object's next member: its key in s.key, the scanner
// at its value. It reports false at the closing brace, and once bad.
func (s *scanner) next() bool {
	if s.bad {
		return false
	}
	if s.i == 0 { // the first call: nothing read yet
		if !s.eat('{') {
			s.bad = true
		}
		if s.bad || s.eat('}') {
			return false
		}
	} else if s.eat('}') {
		return false
	} else if !s.eat(',') { // also where a fraction or an exponent stops
		s.bad = true
		return false
	}
	s.key = s.strBytes()
	s.bad = s.bad || !s.eat(':')
	s.ws()
	return !s.bad
}

// done reports whether the object closed with only whitespace after it.
func (s *scanner) done() bool {
	s.ws()
	return !s.bad && s.i == len(s.b)
}

func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// eat consumes c after optional whitespace, if it is there.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// strBytes reads a string of ASCII from 0x20 up with no escape,
// returning a view into b.
func (s *scanner) strBytes() []byte {
	if !s.eat('"') {
		s.bad = true
		return nil
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c == '"' {
			s.i++
			return s.b[start : s.i-1]
		} else if c < 0x20 || c >= 0x80 || c == '\\' {
			break
		}
	}
	s.bad = true
	return nil
}

// str reads a string value into a copy.
func (s *scanner) str() string { return string(s.strBytes()) }

// int reads an integer that fits a signed field of the given width.
func (s *scanner) int(bits int) int64 {
	neg := s.eat('-')
	lim := uint64(1) << (bits - 1)
	n := s.uint(lim)
	if neg {
		return -int64(n)
	}
	if n == lim {
		s.bad = true
	}
	return int64(n)
}

// uint reads the digits of an integer no greater than max: at least
// one, and no leading zero.
func (s *scanner) uint(max uint64) uint64 {
	start, n := s.i, uint64(0)
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if n > (max-d)/10 {
			s.bad = true
			return 0
		}
		n = n*10 + d
	}
	if s.i == start || s.b[start] == '0' && s.i > start+1 {
		s.bad = true
	}
	return n
}

func (s *scanner) bool() bool {
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
	default:
		s.bad = true
	}
	return false
}
