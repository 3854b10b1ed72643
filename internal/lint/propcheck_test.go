package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"extradeep/internal/propcheck"
)

// TestPropPerfAnalyzersParity pins the determinism contract of the perf
// analyzer family over the allocloop fixture module: findings are
// byte-identical between a sequential load (GOMAXPROCS 1) and a parallel
// load at any GOMAXPROCS.
func TestPropPerfAnalyzersParity(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the fixture module per iteration; skipped in -short")
	}
	perf := []*Analyzer{AllocLoop, PreAlloc}
	root := filepath.Join("testdata", "src", "allocloop")

	seqMod, err := loadAtProcs(t, root, 1)
	if err != nil {
		t.Fatalf("sequential load: %v", err)
	}
	seq := formatDiags(Run(seqMod, perf, nil))
	if !strings.Contains(seq, "allocloop: make(") {
		t.Fatalf("the sequential reference lacks the direct allocloop finding; the parity check would be vacuous:\n%s", seq)
	}

	propcheck.CheckConfig(t, propcheck.Config{Iterations: 6}, propcheck.IntRange(2, 8), func(procs int) error {
		mod, err := loadAtProcs(t, root, procs)
		if err != nil {
			return fmt.Errorf("load at GOMAXPROCS %d: %w", procs, err)
		}
		if got := formatDiags(Run(mod, perf, nil)); got != seq {
			return fmt.Errorf("findings at GOMAXPROCS %d diverge from the sequential load\n--- got ---\n%s--- want ---\n%s",
				procs, got, seq)
		}
		return nil
	})
}
