package mapd

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// The wire format is line-delimited JSON in both directions. Replies are
// appended to a caller-owned buffer field by field: keys in ascending
// order, values rendered as encoding/json renders them, so a reply is byte
// for byte what marshalling the same fields from a map would give
// (differential_test.go holds it to that) without the map, the reflection
// or the garbage. Requests in the canonical form clients send are decoded
// by scanRequest; any other input takes the encoding/json road.

// request is one decoded query. The fields alias the line they were decoded
// from on the canonical path, so they are good until the connection's next
// read and must be copied to outlive it.
type request struct {
	Op, From, To, Spec []byte
}

// wireRequest is request as encoding/json decodes it.
type wireRequest struct {
	Op   string `json:"op"`
	From string `json:"from"`
	To   string `json:"to"`
	Spec string `json:"spec"`
}

// decodeRequest decodes one non-empty request line. The result and the error
// are those of json.Unmarshal into wireRequest, for every input: the scanner
// accepts only lines on which the two cannot differ.
func decodeRequest(line []byte) (request, error) {
	if req, ok := scanRequest(line); ok {
		return req, nil
	}
	var w wireRequest
	err := json.Unmarshal(line, &w)
	return request{Op: []byte(w.Op), From: []byte(w.From), To: []byte(w.To), Spec: []byte(w.Spec)}, err
}

// scanRequest decodes the canonical request form without allocating: one
// flat object, no whitespace, whose keys are distinct members of
// op/from/to/spec in exactly that spelling and whose values are strings of
// printable ASCII with no escapes. It reports false for every other line,
// valid JSON or not; encoding/json matches keys case-insensitively, lets
// the last duplicate win and rewrites invalid UTF-8, and none of that is
// re-implemented here.
//
//sanlint:hotpath
func scanRequest(line []byte) (req request, ok bool) {
	if len(line) < 2 || line[0] != '{' {
		return request{}, false
	}
	const (
		seenOp = 1 << iota
		seenFrom
		seenTo
		seenSpec
	)
	seen := 0
	for i := 1; ; {
		key, next := scanString(line, i)
		if next < 0 || next >= len(line) || line[next] != ':' {
			return request{}, false
		}
		val, next := scanString(line, next+1)
		if next < 0 || next >= len(line) {
			return request{}, false
		}
		var field *[]byte
		var bit int
		switch string(key) {
		case "op":
			field, bit = &req.Op, seenOp
		case "from":
			field, bit = &req.From, seenFrom
		case "to":
			field, bit = &req.To, seenTo
		case "spec":
			field, bit = &req.Spec, seenSpec
		default:
			return request{}, false
		}
		if seen&bit != 0 {
			return request{}, false
		}
		seen |= bit
		*field = val
		switch line[next] {
		case ',':
			i = next + 1
		case '}':
			return req, next == len(line)-1
		default:
			return request{}, false
		}
	}
}

// scanString reads the plain string literal opening at line[i] and returns
// its contents and the index after the closing quote, or next < 0 when
// line[i] opens no such literal.
//
//sanlint:hotpath
func scanString(line []byte, i int) (s []byte, next int) {
	if i >= len(line) || line[i] != '"' {
		return nil, -1
	}
	for j := i + 1; j < len(line); j++ {
		switch c := line[j]; {
		case c == '"':
			return line[i+1 : j], j + 1
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, -1
		}
	}
	return nil, -1
}

const hexDigits = "0123456789abcdef"

// appendEscaped appends s as the inside of a JSON string literal, escaped
// byte for byte as encoding/json does with HTML escaping on (its default):
// the two-character escapes it knows, \u00XX for other controls and for
// <, > and &, \ufffd for invalid UTF-8, U+2028 and U+2029 spelled out.
//
//sanlint:hotpath
func appendEscaped[S []byte | string](dst []byte, s S) []byte {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// A conversion this short stays on the stack.
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// appendString appends s as a JSON string literal.
//
//sanlint:hotpath
func appendString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	dst = appendEscaped(dst, s)
	return append(dst, '"')
}

// appendFloat appends a finite f as encoding/json renders a float64: the
// shortest decimal that round-trips, exponent form only below 1e-6 and from
// 1e21 up, the exponent without a leading zero.
//
//sanlint:hotpath
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendKey opens the next field of the object being appended to dst: a
// comma unless it is the first, then the key. Keys are plain ASCII
// literals; the caller names them in ascending order.
//
//sanlint:hotpath
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

// The field helpers append one "key":value member each.
//
//sanlint:hotpath
func fieldString[S []byte | string](dst []byte, key string, v S) []byte {
	return appendString(appendKey(dst, key), v)
}

//sanlint:hotpath
func fieldInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(appendKey(dst, key), v, 10)
}

//sanlint:hotpath
func fieldUint(dst []byte, key string, v uint64) []byte {
	return strconv.AppendUint(appendKey(dst, key), v, 10)
}

//sanlint:hotpath
func fieldFloat(dst []byte, key string, v float64) []byte {
	return appendFloat(appendKey(dst, key), v)
}

//sanlint:hotpath
func fieldBool(dst []byte, key string, v bool) []byte {
	return strconv.AppendBool(appendKey(dst, key), v)
}

// appendFailure appends the reply of a query that was not served and
// carries nothing but the reason; op is omitted when empty (the request
// named none the daemon knows).
func appendFailure(dst []byte, op, msg string) []byte {
	dst = append(dst, '{')
	dst = fieldString(dst, "error", msg)
	dst = fieldBool(dst, "ok", false)
	if op != "" {
		dst = fieldString(dst, "op", op)
	}
	return append(dst, '}', '\n')
}
