package propcheck

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// recorder is a TB that captures failure reports instead of failing, so
// the tests below can inspect (and replay) what the runner prints.
type recorder struct {
	name string
	logs []string
	errs []string
}

func (r *recorder) Helper()                      {}
func (r *recorder) Name() string                 { return r.name }
func (r *recorder) Logf(f string, args ...any)   { r.logs = append(r.logs, fmt.Sprintf(f, args...)) }
func (r *recorder) Errorf(f string, args ...any) { r.errs = append(r.errs, fmt.Sprintf(f, args...)) }
func (r *recorder) failure(t *testing.T) string {
	t.Helper()
	if len(r.errs) != 1 {
		t.Fatalf("want exactly 1 failure report, got %d: %v", len(r.errs), r.errs)
	}
	return r.errs[0]
}

var seedRe = regexp.MustCompile(`EDCHECK_SEED=(\d+) go test`)

// fromCounterexample cuts a failure report down to its replay-stable
// part: everything from the counterexample line on.
func fromCounterexample(report string) string {
	if i := strings.Index(report, "counterexample:"); i >= 0 {
		return report[i:]
	}
	return report
}

// errTooBig is the deliberately failing property used throughout: values
// above 50 fail, so the unique minimal counterexample is 51.
func errTooBig(v int) error {
	if v > 50 {
		return errors.New("value exceeds 50")
	}
	return nil
}

// TestFailureReportIsReplayableAndShrunk is the self-test required by the
// engine's contract: every failure report carries a replayable seed and a
// shrunk minimal counterexample, and re-running with EDCHECK_SEED set
// reproduces the identical report.
func TestFailureReportIsReplayableAndShrunk(t *testing.T) {
	rec := &recorder{name: "TestPropSelf"}
	Check[int](rec, IntRange(0, 100000), errTooBig)
	report := rec.failure(t)

	if !strings.Contains(report, "counterexample: 51") {
		t.Errorf("report did not shrink to the minimal counterexample 51:\n%s", report)
	}
	m := seedRe.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("report carries no EDCHECK_SEED replay recipe:\n%s", report)
	}
	if !strings.Contains(report, "go test -run '^TestPropSelf$'") {
		t.Errorf("replay recipe does not name the test:\n%s", report)
	}

	// Replay: with EDCHECK_SEED set, the runner must reproduce exactly
	// the same counterexample from just the seed. Compare from the
	// counterexample line on — only the sweep-iteration number in the
	// first line legitimately differs between sweep and replay.
	t.Setenv(SeedEnv, m[1])
	replay := &recorder{name: "TestPropSelf"}
	Check[int](replay, IntRange(0, 100000), errTooBig)
	got := replay.failure(t)
	if fromCounterexample(got) != fromCounterexample(report) {
		t.Errorf("replay diverged from the original report\n--- original ---\n%s\n--- replay ---\n%s", report, got)
	}
	if !strings.Contains(got, "seed "+m[1]) {
		t.Errorf("replay report does not carry the replayed seed %s:\n%s", m[1], got)
	}
}

// TestReplayOfPassingSeedLogs: a seed whose case passes must not fail the
// test, and must say it was a replay.
func TestReplayOfPassingSeedLogs(t *testing.T) {
	t.Setenv(SeedEnv, "7")
	rec := &recorder{name: "TestPropSelf"}
	Check[int](rec, Const(1), errTooBig)
	if len(rec.errs) != 0 {
		t.Fatalf("passing replay reported failure: %v", rec.errs)
	}
	if len(rec.logs) != 1 || !strings.Contains(rec.logs[0], "replay") {
		t.Fatalf("passing replay did not log: %v", rec.logs)
	}
}

// TestSweepIsDeterministic: the generated case sequence is a pure
// function of the test name and config.
func TestSweepIsDeterministic(t *testing.T) {
	draw := func() []int {
		var seen []int
		rec := &recorder{name: "TestPropSweep"}
		CheckConfig[int](rec, Config{Iterations: 50}, IntRange(0, 1<<30), func(v int) error {
			seen = append(seen, v)
			return nil
		})
		return seen
	}
	a, b := draw(), draw()
	if len(a) != 50 {
		t.Fatalf("want 50 cases, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("case %d diverged between identical sweeps: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSliceShrinkIsStructurallyMinimal: a property failing on "any
// element > 10" must shrink to a single-element slice holding 11.
func TestSliceShrinkIsStructurallyMinimal(t *testing.T) {
	rec := &recorder{name: "TestPropSlices"}
	g := SliceOf(IntRange(0, 1000), 0, 20)
	Check[[]int](rec, g, func(v []int) error {
		for _, x := range v {
			if x > 10 {
				return errors.New("element exceeds 10")
			}
		}
		return nil
	})
	report := rec.failure(t)
	if !strings.Contains(report, "counterexample: []int{11}") {
		t.Errorf("slice did not shrink to []int{11}:\n%s", report)
	}
}

// TestFloatGeneratorsAreFinite: floats-without-NaN is a generator
// invariant the whole suite relies on.
func TestFloatGeneratorsAreFinite(t *testing.T) {
	CheckConfig[float64](t, Config{Iterations: 2000}, Float64Range(-1e300, 1e300), func(v float64) error {
		if v != v || v > 1e308 || v < -1e308 {
			return fmt.Errorf("non-finite draw %v", v)
		}
		return nil
	})
}

// TestMapGeneratorRespectsBoundsAndShrinks: maps stay within size bounds
// and shrink by dropping entries deterministically.
func TestMapGeneratorRespectsBoundsAndShrinks(t *testing.T) {
	g := MapOf(IntRange(0, 1000), IntRange(0, 9), 0, 8)
	CheckConfig[map[int]int](t, Config{Iterations: 300}, g, func(m map[int]int) error {
		if len(m) > 8 {
			return fmt.Errorf("map of size %d exceeds bound", len(m))
		}
		return nil
	})

	rec := &recorder{name: "TestPropMaps"}
	Check[map[int]int](rec, g, func(m map[int]int) error {
		if len(m) >= 2 {
			return errors.New("too many entries")
		}
		return nil
	})
	if !strings.Contains(rec.failure(t), "counterexample: map{") {
		t.Errorf("map failure not rendered with deterministic key order:\n%s", rec.errs)
	}
	// The minimal failing map has exactly 2 entries.
	if c := rec.failure(t); strings.Count(c[strings.Index(c, "map{"):strings.Index(c, "}")], ":") != 2 {
		t.Errorf("map did not shrink to 2 entries:\n%s", c)
	}
}

// TestItersEnvMultiplies: EDCHECK_ITERS scales the iteration budget —
// the hook cmd/edcheck uses for the long-haul run.
func TestItersEnvMultiplies(t *testing.T) {
	t.Setenv(ItersEnv, "3")
	count := 0
	CheckConfig[int](t, Config{Iterations: 10}, IntRange(0, 1), func(int) error {
		count++
		return nil
	})
	if count != 30 {
		t.Fatalf("EDCHECK_ITERS=3 with 10 iterations ran %d cases, want 30", count)
	}
}

// TestIntShrinkLadder: the ladder proposes the floor first and ends just
// below the failing value, so greedy descent terminates at the boundary.
func TestIntShrinkLadder(t *testing.T) {
	got := shrinkInt(1000, 0)
	if got[0] != 0 {
		t.Errorf("first candidate %d, want the floor 0", got[0])
	}
	if got[len(got)-1] != 999 {
		t.Errorf("last candidate %d, want 999", got[len(got)-1])
	}
	if len(shrinkInt(5, 5)) != 0 {
		t.Errorf("shrinking a value at its floor must propose nothing")
	}
}
