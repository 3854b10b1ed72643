package serve

import (
	"bytes"
	"unicode/utf16"
	"unicode/utf8"
)

// scanEnvelope checks an upload body on the fast path without writing
// to it. It accepts the shape json.Marshal writes for an uploadRequest,
//
//	{"format":"json","profiles":[{"content":"…"},…]}
//
// with exact keys in that order, whitespace anywhere and at least one
// document, and returns the format literal and every content literal as
// spans of the body, still escaped. Unescaping waits until the whole
// body is accepted (envString.decode), so a body the fast path refuses
// reaches json.Unmarshal exactly as it arrived.
//
// The simple escapes and every \uXXXX escape except a surrogate stay on
// the fast path, as does valid non-ASCII UTF-8: JSON profiles hold \" and
// \\, CSV profiles \n, and json.Marshal writes <, > and & as \u003c,
// \u003e and \u0026. ok is false for every other body: an inexact,
// unknown, repeated or reordered key, a null or a value of another type,
// a surrogate escape, invalid UTF-8, a control byte, trailing data or an
// empty profiles array. The caller decodes such a body with
// json.Unmarshal, so every result and error stays encoding/json's.
func scanEnvelope(body []byte) (format envString, docs []envString, ok bool) {
	s := &envScanner{data: body}
	s.expect('{')
	s.key(`"format"`)
	format = s.content()
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
		return envString{}, nil, false
	}
	return format, docs, true
}

// envString is one string literal of an accepted upload body: raw is its
// contents between the quotes, a sub-slice of the body capped at its own
// end, and n its decoded length. Every escape is longer than what it
// stands for, so n == len(raw) exactly when raw holds no escape. The
// json.Unmarshal fallback wraps its decoded documents the same way, with
// n == len(raw), so decode returns them as they are.
type envString struct {
	raw []byte
	n   int
}

// decode unescapes the literal over its own bytes and returns the
// decoded bytes, a prefix of raw. Every escape shrinks, so each write
// lands at or behind the byte being read. Literals of one body never
// overlap, which lets the validation workers decode them concurrently.
// decode rewrites raw, so it runs once per literal.
func (e envString) decode() []byte {
	b := e.raw
	if e.n == len(b) {
		return b
	}
	w := bytes.IndexByte(b, '\\')
	for r := w; r < len(b); {
		if c := b[r+1]; c == 'u' {
			x, _ := hex4(b[r+2:])
			w += utf8.EncodeRune(b[w:], x)
			r += 6
		} else {
			b[w] = simpleEscapes[c]
			w++
			r += 2
		}
		i := bytes.IndexByte(b[r:], '\\')
		if i < 0 {
			i = len(b) - r
		}
		w += copy(b[w:], b[r:r+i])
		r += i
	}
	return b[:w]
}

// envScanner is the fast path's cursor over one upload body. The first
// departure from the canonical shape sets bad; from then on nothing is
// consumed, so scanEnvelope checks bad once, at the end.
type envScanner struct {
	data []byte
	pos  int
	bad  bool
}

// simpleEscapes maps the byte after a backslash to the byte it stands
// for, for the two-byte escapes; 0 marks every other byte.
var simpleEscapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// plainBytes marks the bytes that stand for themselves inside a string
// literal: printable ASCII other than the quote and the backslash.
var plainBytes = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

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

// content returns the string literal at the cursor as a span of the
// body, with its decoded length.
func (s *envScanner) content() envString {
	if !s.eat('"') {
		s.bad = true
		return envString{}
	}
	n, end := s.measure()
	if s.bad {
		return envString{}
	}
	raw := s.data[s.pos:end:end]
	s.pos = end + 1
	return envString{raw: raw, n: n}
}

// measure checks the string literal that starts at the cursor, just past
// its opening quote, and returns its decoded length and the index of its
// closing quote. It ends the fast path on a byte or escape the fast path
// does not take.
func (s *envScanner) measure() (n, end int) {
	b := s.data
	for i := s.pos; i < len(b); {
		// Runs of plain ASCII, most of every profile, cost one table
		// load per byte.
		start := i
		for i < len(b) && plainBytes[b[i]] {
			i++
		}
		n += i - start
		if i == len(b) {
			break
		}
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
