package jsonlit

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestAppendMatchesEncodingJSON: every literal ASCII accepts decodes,
// appended and in place, to exactly encoding/json's string; every
// literal it refuses is one encoding/json refuses or decodes by a rule
// Append does not follow (surrogates, raw non-ASCII).
func TestAppendMatchesEncodingJSON(t *testing.T) {
	bs := "\x5c" // one backslash, kept out of the literals below
	for _, tc := range []struct {
		lit   string
		ascii bool
	}{
		{"", true},
		{"plain text", true},
		{bs + `"q` + bs + `"`, true},
		{bs + bs + bs + "/" + bs + "b" + bs + "f" + bs + "n" + bs + "r" + bs + "t", true},
		{"App" + bs + "u003ek" + bs + "u003Cx" + bs + "u0026", true},
		{bs + "u00e9" + bs + "u20AC" + bs + "uFFFF" + bs + "u0000", true},
		{bs + "ud83d" + bs + "ude00", false}, // a surrogate pair
		{bs + "udc00", false},                // a lone surrogate
		{bs + "u12", false},                  // a short \u escape
		{bs + "x", false},                    // an invalid escape
		{"caf\xc3\xa9", false},               // raw non-ASCII
		{"a\x01b", false},                    // a control byte
	} {
		lit := []byte(tc.lit)
		if got := ASCII(lit); got != tc.ascii {
			t.Errorf("ASCII(%q) = %v, want %v", tc.lit, got, tc.ascii)
			continue
		}
		if !tc.ascii {
			continue
		}
		var want string
		if err := json.Unmarshal([]byte(`"`+tc.lit+`"`), &want); err != nil {
			t.Fatalf("%q: %v", tc.lit, err)
		}
		if got := Append([]byte("x"), lit); string(got) != "x"+want {
			t.Errorf("Append(%q) = %q, want %q", tc.lit, got[1:], want)
		}
		in := bytes.Clone(lit)
		if got := Append(in[:0], in); string(got) != want {
			t.Errorf("in place, Append(%q) = %q, want %q", tc.lit, got, want)
		}
	}
}

// TestEscapeRoundTrips: the literal Escape writes for a decoded string
// decodes back to it, by encoding/json and by Append, and is no longer
// than the fast-path literal the string was decoded from.
func TestEscapeRoundTrips(t *testing.T) {
	bs := "\x5c" // one backslash, kept out of the literals below
	for _, lit := range []string{
		"",
		"plain text",
		bs + `"q` + bs + `"` + bs + bs,
		bs + "/" + bs + "b" + bs + "f" + bs + "n" + bs + "r" + bs + "t",
		bs + "u0000" + bs + "u001F" + bs + "u000a" + bs + "u0022" + bs + "u005c" + bs + "u002f",
		"caf\xc3\xa9" + bs + "u20AC" + bs + "uFFFF",
		"App" + bs + "u003ek" + bs + "u003Cx" + bs + "u0026",
	} {
		s := Append(nil, []byte(lit))
		esc := Escape([]byte("x"), s)[1:]
		var got string
		if err := json.Unmarshal([]byte(`"`+string(esc)+`"`), &got); err != nil || got != string(s) {
			t.Errorf("Escape(%q) = %q, which encoding/json decodes to %q (%v)", s, esc, got, err)
		}
		if back := Append(nil, esc); !bytes.Equal(back, s) {
			t.Errorf("Escape(%q) = %q, which Append decodes to %q", s, esc, back)
		}
		if len(esc) > len(lit) {
			t.Errorf("Escape(%q) = %q is longer than the literal %q", s, esc, lit)
		}
	}
}
