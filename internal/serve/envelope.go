package serve

import (
	"bytes"
	"unicode/utf8"

	"extradeep/internal/jsonlit"
)

// envScanner checks an upload body on the fast path without writing to
// it, handing out each content literal as soon as it has measured it.
// It accepts the shape json.Marshal writes for an uploadRequest,
//
//	{"format":"json","profiles":[{"content":"…"},…]}
//
// with exact keys in that order, whitespace anywhere and at least one
// document: header returns the format literal, next each content
// literal in turn, and end reports whether the whole body was accepted.
// Literals are spans of the body, still escaped. Nothing may write to
// the body before end has accepted it, so a body the fast path refuses
// reaches json.Unmarshal exactly as it arrived.
//
// The simple escapes and every \uXXXX escape except a surrogate stay on
// the fast path, as does valid non-ASCII UTF-8: JSON profiles hold \" and
// \\, CSV profiles \n, and json.Marshal writes <, > and & as \u003c,
// \u003e and \u0026. end is false for every other body: an inexact,
// unknown, repeated or reordered key, a null or a value of another type,
// a surrogate escape, invalid UTF-8, a control byte, trailing data or an
// empty profiles array. The caller decodes such a body with
// json.Unmarshal, so every result and error stays encoding/json's.
//
// The first departure from the canonical shape sets bad; from then on
// nothing is consumed and next hands out nothing more.
type envScanner struct {
	data []byte
	pos  int
	bad  bool
	// done marks the end of the profiles array; n counts the literals
	// next has handed out.
	done bool
	n    int
}

// header consumes the envelope up to the first profile and returns the
// format literal.
func (s *envScanner) header() envString {
	s.expect('{')
	s.key(`"format"`)
	format := s.content()
	s.expect(',')
	s.key(`"profiles"`)
	s.expect('[')
	return format
}

// next consumes the next element of the profiles array and returns its
// content literal; ok is false at the end of the array and after a
// departure from the fast path.
func (s *envScanner) next() (doc envString, ok bool) {
	if s.bad || s.done {
		return envString{}, false
	}
	if s.n > 0 && !s.eat(',') {
		s.done = true
		return envString{}, false
	}
	s.expect('{')
	s.key(`"content"`)
	doc = s.content()
	s.expect('}')
	if s.bad {
		return envString{}, false
	}
	s.n++
	return doc, true
}

// end consumes the rest of the envelope after the last profile and
// reports whether the fast path accepted the whole body.
func (s *envScanner) end() bool {
	s.expect(']')
	s.expect('}')
	s.space()
	return !s.bad && s.pos == len(s.data)
}

// envString is one string literal of an upload body: raw is its contents
// between the quotes, a sub-slice of the body capped at its own end, and
// n its decoded length. Every escape is longer than what it stands for,
// so n == len(raw) exactly when raw holds no escape. The json.Unmarshal
// fallback wraps its decoded documents the same way, with n == len(raw),
// so decode returns them as they are.
type envString struct {
	raw []byte
	n   int
}

// decode unescapes the literal over its own bytes and returns the
// decoded bytes, a prefix of raw; it may run only once the scanner has
// accepted the body. Literals of one body never overlap, so documents
// can be decoded concurrently. decode rewrites raw, so it runs once per
// literal.
func (e envString) decode() []byte {
	if e.n == len(e.raw) {
		return e.raw
	}
	return jsonlit.Append(e.raw[:0], e.raw)
}

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
		case c == '\\' && i+1 < len(b) && jsonlit.Simple[b[i+1]] != 0:
			n++
			i += 2
		case c == '\\':
			r, ok := jsonlit.Unicode(b[i:])
			if !ok {
				s.bad = true
				return 0, 0
			}
			n += utf8.RuneLen(r)
			i += 6
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
