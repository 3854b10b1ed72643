package serve

import (
	"bytes"
	"unicode/utf16"
	"unicode/utf8"
)

// decodeEnvelope decodes an upload body on the fast path. It accepts the
// shape json.Marshal writes for an uploadRequest,
//
//	{"format":"json","profiles":[{"content":"…"},…]}
//
// with exact keys in that order, whitespace anywhere and at least one
// document. Each content literal is unescaped straight into its own
// exactly-sized slice, which is the buffer the document is then decoded
// from, spooled from and handed off in: no string holds it in between.
//
// The simple escapes and every \uXXXX escape except a surrogate stay on
// the fast path, as does valid non-ASCII UTF-8: JSON profiles hold \" and
// \\, CSV profiles \n, and json.Marshal writes <, > and & as \u003c,
// \u003e and \u0026. ok is false for every other body: an inexact,
// unknown, repeated or reordered key, a null or a value of another type,
// a surrogate escape, invalid UTF-8, a control byte, trailing data or an
// empty profiles array. The caller decodes such a body with
// json.Unmarshal, so every result and error stays encoding/json's.
func decodeEnvelope(body []byte) (format string, docs [][]byte, ok bool) {
	s := &envScanner{data: body}
	s.expect('{')
	s.key(`"format"`)
	format = string(s.content())
	s.expect(',')
	s.key(`"profiles"`)
	s.expect('[')
	for !s.bad {
		s.expect('{')
		s.key(`"content"`)
		docs = append(docs, s.content())
		s.expect('}')
		if !s.eat(',') {
			break
		}
	}
	s.expect(']')
	s.expect('}')
	s.space()
	if s.bad || s.pos != len(s.data) {
		return "", nil, false
	}
	return format, docs, true
}

// envScanner is the fast path's cursor over one upload body. The first
// departure from the canonical shape sets bad; from then on nothing is
// consumed, so decodeEnvelope checks bad once, at the end.
type envScanner struct {
	data []byte
	pos  int
	bad  bool
}

// simpleEscapes maps the byte after a backslash to the byte it stands
// for, for the two-byte escapes; 0 marks every other byte.
var simpleEscapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// key consumes the quoted key literal and the colon after it.
func (s *envScanner) key(quoted string) {
	s.space()
	if s.bad || !bytes.HasPrefix(s.data[s.pos:], []byte(quoted)) {
		s.bad = true
		return
	}
	s.pos += len(quoted)
	s.expect(':')
}

// content returns the string literal at the cursor unescaped into a new
// slice of exactly its decoded length.
func (s *envScanner) content() []byte {
	if !s.eat('"') {
		s.bad = true
		return nil
	}
	n, end := s.measure()
	if s.bad {
		return nil
	}
	out := make([]byte, n)
	unescape(out, s.data[s.pos:end])
	s.pos = end + 1
	return out
}

// measure checks the string literal that starts at the cursor, just past
// its opening quote, and returns its decoded length and the index of its
// closing quote. It ends the fast path on a byte or escape the fast path
// does not take.
func (s *envScanner) measure() (n, end int) {
	b := s.data
	for i := s.pos; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			return n, i
		case c == '\\':
			switch {
			case i+1 < len(b) && simpleEscapes[b[i+1]] != 0:
				n++
				i += 2
			case i+1 < len(b) && b[i+1] == 'u':
				r, ok := hex4(b[i+2:])
				if !ok || utf16.IsSurrogate(r) {
					s.bad = true
					return 0, 0
				}
				n += utf8.RuneLen(r)
				i += 6
			default:
				s.bad = true
				return 0, 0
			}
		case c < 0x20:
			s.bad = true
			return 0, 0
		case c < utf8.RuneSelf:
			n++
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				s.bad = true
				return 0, 0
			}
			n += size
			i += size
		}
	}
	s.bad = true
	return 0, 0
}

// unescape writes the decoded bytes of raw, a string literal's contents
// that measure has accepted, into dst, which has exactly their length.
func unescape(dst, raw []byte) {
	for {
		i := bytes.IndexByte(raw, '\\')
		if i < 0 {
			copy(dst, raw)
			return
		}
		dst = dst[copy(dst, raw[:i]):]
		if c := raw[i+1]; c == 'u' {
			r, _ := hex4(raw[i+2:])
			dst = dst[utf8.EncodeRune(dst, r):]
			raw = raw[i+6:]
		} else {
			dst[0] = simpleEscapes[c]
			dst = dst[1:]
			raw = raw[i+2:]
		}
	}
}

// hex4 decodes the four hex digits of a \uXXXX escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// eat consumes c, after any whitespace, if it is the next byte.
func (s *envScanner) eat(c byte) bool {
	s.space()
	if s.bad || s.pos >= len(s.data) || s.data[s.pos] != c {
		return false
	}
	s.pos++
	return true
}

// expect consumes c like eat, and ends the fast path if it is missing.
func (s *envScanner) expect(c byte) {
	if !s.eat(c) {
		s.bad = true
	}
}

// space skips JSON whitespace.
func (s *envScanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}
