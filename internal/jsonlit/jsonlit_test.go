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
