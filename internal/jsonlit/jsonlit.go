// Package jsonlit decodes the JSON string literals that the fast
// decoders keep on their fast path: literals whose escapes are the
// two-byte ones (\" \\ \/ \b \f \n \r \t) or a \uXXXX outside the
// surrogate range. json.Marshal writes every literal that way, escaping
// <, > and & as \u003c, \u003e and \u0026. Literals holding any other
// escape are left to encoding/json by the callers.
package jsonlit

import (
	"bytes"
	"unicode/utf16"
	"unicode/utf8"
)

// Simple maps the byte after a backslash to the byte a two-byte escape
// stands for; 0 marks every other byte.
var Simple = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

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

// Unicode decodes the \uXXXX escape at the start of b and reports
// whether it is one the fast path takes: four hex digits naming a rune
// outside the surrogate range.
func Unicode(b []byte) (rune, bool) {
	if len(b) < 2 || b[0] != '\\' || b[1] != 'u' {
		return 0, false
	}
	r, ok := hex4(b[2:])
	return r, ok && !utf16.IsSurrogate(r)
}

// ASCII reports whether lit, the contents of a string literal between
// its quotes, is printable ASCII whose every escape Append decodes. A
// literal with a control byte, a non-ASCII byte or any other escape
// needs encoding/json, which also decides how invalid UTF-8 and lone
// surrogates decode.
func ASCII(lit []byte) bool {
	for i := 0; i < len(lit); i++ {
		switch c := lit[i]; {
		case c < 0x20 || c >= utf8.RuneSelf:
			return false
		case c != '\\':
		case i+1 < len(lit) && Simple[lit[i+1]] != 0:
			i++
		default:
			if _, ok := Unicode(lit[i:]); !ok {
				return false
			}
			i += 5
		}
	}
	return true
}

// Append appends the decoded contents of the string literal lit (the
// bytes between its quotes) to dst. Every escape in lit must be one the
// fast path takes; every other byte is copied as it is. Each escape is
// longer than what it decodes to, so dst may be lit[:0]: the literal is
// then unescaped in place, each write landing at or behind the byte
// being read.
func Append(dst, lit []byte) []byte {
	for {
		i := bytes.IndexByte(lit, '\\')
		if i < 0 {
			return append(dst, lit...)
		}
		dst = append(dst, lit[:i]...)
		if c := lit[i+1]; c == 'u' {
			r, _ := hex4(lit[i+2:])
			dst = utf8.AppendRune(dst, r)
			lit = lit[i+6:]
		} else {
			dst = append(dst, Simple[c])
			lit = lit[i+2:]
		}
	}
}
