package profile

import (
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
			if _, ok := decodeFast(corpusSeed(t, path)); ok != wantFast {
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
