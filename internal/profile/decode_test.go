package profile

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestDecodeFastPathClasses runs the fast path on the FuzzProfileRead
// seeds named after the class of document they probe: each fallback-*
// seed must leave the fast path and each fast-* seed must stay on it.
// The fuzz target checks that every seed decodes exactly as
// json.Unmarshal decodes it.
func TestDecodeFastPathClasses(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzProfileRead", "*"))
	if err != nil {
		t.Fatal(err)
	}
	classes := map[bool]int{}
	for _, path := range paths {
		name := filepath.Base(path)
		wantFast := strings.HasPrefix(name, "fast-")
		if !wantFast && !strings.HasPrefix(name, "fallback-") {
			continue
		}
		classes[wantFast]++
		t.Run(name, func(t *testing.T) {
			if _, ok := new(Decoder).decodeFast(corpusSeed(t, path), false); ok != wantFast {
				t.Errorf("fast path ok = %v, want %v", ok, wantFast)
			}
		})
	}
	if classes[true] == 0 || classes[false] == 0 {
		t.Fatalf("found %d fast-* and %d fallback-* seeds", classes[true], classes[false])
	}
}

// corpusSeed reads the one []byte value of a fuzz corpus file.
func corpusSeed(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s is not a single-[]byte corpus file", path)
	}
	seed, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(seed)
}

// TestNumberExactPath pins which number literals convert without
// strconv and that each conversion equals strconv's, bit for bit, for
// float and int fields alike.
func TestNumberExactPath(t *testing.T) {
	for _, tc := range []struct {
		lit   string
		exact bool
	}{
		{"0", true}, {"-0", true}, {"-0.0", true}, {"7", true}, {"1.5", true},
		{"123456789012345678", true}, {"-123456789012345678", true},
		{"1234567890123456789", false}, {"9223372036854775807", false},
		{"9007199254740991", true}, {"9007199254740993", true},
		{"900719925474099.1", true}, {"900719925474099.2", false},
		{"0.1234567890123456", true}, {"0.12345678901234567", false},
		{"0.0000000000000000000001", true}, {"0.00000000000000000000001", false},
		{"1.2345678901234567890123", false}, {"0.000123", true},
		{"1e3", false}, {"1.5E-7", false},
	} {
		d := &decoder{data: []byte(tc.lit)}
		if n := d.number(); d.bad || n.exact != tc.exact {
			t.Errorf("%s: exact = %v (bad %v), want %v", tc.lit, n.exact, d.bad, tc.exact)
		}
		want, err := strconv.ParseFloat(tc.lit, 64)
		if err != nil {
			t.Fatal(err)
		}
		d = &decoder{data: []byte(tc.lit)}
		if got := d.float(); d.bad || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: float %v (bad %v), want %v", tc.lit, got, d.bad, want)
		}
		wantInt, err := strconv.ParseInt(tc.lit, 10, 0)
		d = &decoder{data: []byte(tc.lit)}
		if got := d.int(); d.bad != (err != nil) || err == nil && got != int(wantInt) {
			t.Errorf("%s: int %d (bad %v), want %d (error %v)", tc.lit, got, d.bad, wantInt, err)
		}
	}
}
