package serve

import (
	"bytes"
	"unicode/utf8"

	"extradeep/internal/jsonlit"
)

// envScanner reads an upload body on the fast path, unescaping each
// string literal over its own bytes as it reads it. It accepts the shape
// json.Marshal writes for an uploadRequest,
//
//	{"format":"json","profiles":[{"content":"…"},…]}
//
// with exact keys in that order, whitespace anywhere and at least one
// document: header returns the format, next each document in turn, and
// end reports whether the whole body was accepted. Each is returned
// decoded, as a sub-slice of the body capped at its own end that the
// scanner does not write to again, so the documents can be decoded
// while the scan goes on.
//
// The simple escapes and every \uXXXX escape except a surrogate stay on
// the fast path, as does valid non-ASCII UTF-8: JSON profiles hold \" and
// \\, CSV profiles \n, and json.Marshal writes <, > and & as \u003c,
// \u003e and \u0026. end is false for every other body: an inexact,
// unknown, repeated or reordered key, a null or a value of another type,
// a surrogate escape, invalid UTF-8, a control byte, trailing data or an
// empty profiles array. The caller decodes such a body with
// json.Unmarshal of rebuild's equivalent body, so every result and error
// stays encoding/json's.
//
// The first departure from the canonical shape sets bad; from then on
// nothing is consumed or rewritten and next hands out nothing more.
type envScanner struct {
	data []byte
	pos  int
	bad  bool
	// done marks the end of the profiles array; n counts the documents
	// next has handed out.
	done bool
	n    int
	// spans lists, in body order, the literals unescaped in place.
	spans []litSpan
}

// litSpan is a literal the scanner rewrote: data[start:dec] holds its
// decoded contents, and the body's own bytes resume at end, the
// literal's closing quote or, in a literal that ended the fast path, the
// byte that ended it. data[dec:end] holds stale bytes.
type litSpan struct{ start, dec, end int }

// header consumes the envelope up to the first profile and returns the
// decoded format.
func (s *envScanner) header() []byte {
	s.expect('{')
	s.key(`"format"`)
	format := s.literal()
	s.expect(',')
	s.key(`"profiles"`)
	s.expect('[')
	return format
}

// next consumes the next element of the profiles array and returns its
// decoded content; ok is false at the end of the array and after a
// departure from the fast path.
func (s *envScanner) next() (doc []byte, ok bool) {
	if s.bad || s.done {
		return nil, false
	}
	if s.n > 0 && !s.eat(',') {
		s.done = true
		return nil, false
	}
	s.expect('{')
	s.key(`"content"`)
	doc = s.literal()
	s.expect('}')
	if s.bad {
		return nil, false
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

// rebuild returns a body json.Unmarshal decodes exactly as it would have
// decoded the body the scanner was given, to the same value or the same
// error text: each rewritten literal's decoded bytes escaped again
// (jsonlit.Escape), every other byte as it arrived. json.Unmarshal's
// result depends on a literal only through its value, and its error
// texts carry no offsets, so the two bodies are equivalent. Only a
// refused body needs it, and a body with no rewritten literal is
// returned as it is.
func (s *envScanner) rebuild() []byte {
	if len(s.spans) == 0 {
		return s.data
	}
	// An escaped-again literal is no longer than it arrived, so the
	// rebuilt body fits in the body's length.
	out := make([]byte, 0, len(s.data))
	from := 0
	for _, sp := range s.spans {
		out = append(out, s.data[from:sp.start]...)
		out = jsonlit.Escape(out, s.data[sp.start:sp.dec])
		from = sp.end
	}
	return append(out, s.data[from:]...)
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

// literal consumes the string literal at the cursor and returns its
// contents, unescaped over the literal's own bytes: a write cursor w
// trails the read cursor i, since every escape is longer than what it
// stands for. It ends the fast path on a byte or escape the fast path
// does not take, recording what it has rewritten so far for rebuild.
func (s *envScanner) literal() []byte {
	if !s.eat('"') {
		s.bad = true
		return nil
	}
	b := s.data
	start := s.pos
	i, w := start, start
	for i < len(b) {
		// Runs of plain ASCII, most of every profile, cost one table
		// load and one store per byte.
		for i < len(b) && plainBytes[b[i]] {
			b[w] = b[i]
			i++
			w++
		}
		if i == len(b) {
			break
		}
		switch c := b[i]; {
		case c == '"':
			if w != i {
				s.spans = append(s.spans, litSpan{start, w, i})
			}
			s.pos = i + 1
			return b[start:w:w]
		case c == '\\' && i+1 < len(b) && jsonlit.Simple[b[i+1]] != 0:
			b[w] = jsonlit.Simple[b[i+1]]
			w++
			i += 2
			continue
		case c == '\\':
			if r, ok := jsonlit.Unicode(b[i:]); ok {
				w += utf8.EncodeRune(b[w:], r)
				i += 6
				continue
			}
		case c >= utf8.RuneSelf:
			if r, size := utf8.DecodeRune(b[i:]); r != utf8.RuneError || size > 1 {
				w += copy(b[w:], b[i:i+size])
				i += size
				continue
			}
		}
		break // a control byte, or an escape or byte the fast path refuses
	}
	if w != i {
		s.spans = append(s.spans, litSpan{start, w, i})
	}
	s.bad = true
	return nil
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
