package measurement_test

import (
	"fmt"
	"math"
	"testing"

	"extradeep/internal/measurement"
	"extradeep/internal/propcheck"
)

// repsCase pairs repetition values with a permutation of their order.
type repsCase struct {
	reps []float64
	perm []int
}

func repsCaseGen() propcheck.Gen[repsCase] {
	vals := propcheck.SliceOf(propcheck.Float64Range(-1e6, 1e6), 1, 16)
	return propcheck.Gen[repsCase]{
		Generate: func(r *propcheck.Rand) repsCase {
			reps := vals.Generate(r)
			return repsCase{reps: reps, perm: r.Perm(len(reps))}
		},
		Describe: func(c repsCase) string { return fmt.Sprintf("{reps=%v perm=%v}", c.reps, c.perm) },
	}
}

// TestPropMedianPermutationInvariance: the per-point median over
// repetitions (the modeling value, step (3) of Fig. 2) is invariant under
// reordering of the repetitions.
func TestPropMedianPermutationInvariance(t *testing.T) {
	propcheck.Check(t, repsCaseGen(), func(c repsCase) error {
		orig := measurement.Sample{Reps: c.reps}
		permuted := measurement.Sample{Reps: make([]float64, len(c.reps))}
		for i, j := range c.perm {
			permuted.Reps[i] = c.reps[j]
		}
		m1, ok1 := orig.Median()
		m2, ok2 := permuted.Median()
		if ok1 != ok2 || m1 != m2 {
			return fmt.Errorf("median changed under permutation: %g vs %g", m1, m2)
		}
		return nil
	})
}

// TestPropMedianDuplicationInvariance: duplicating the whole repetition
// multiset leaves the median unchanged.
func TestPropMedianDuplicationInvariance(t *testing.T) {
	propcheck.Check(t, repsCaseGen(), func(c repsCase) error {
		m1, _ := measurement.Sample{Reps: c.reps}.Median()
		doubled := append(append([]float64(nil), c.reps...), c.reps...)
		m2, _ := measurement.Sample{Reps: doubled}.Median()
		if math.Abs(m1-m2) > 1e-12*(1+math.Abs(m1)) {
			return fmt.Errorf("median %g changed to %g after duplicating reps", m1, m2)
		}
		return nil
	})
}

// expCase describes a synthetic experiment: per-series point counts.
type expCase struct {
	pointCounts []int
	min         int
}

func expCaseGen() propcheck.Gen[expCase] {
	counts := propcheck.SliceOf(propcheck.IntRange(1, 8), 1, 6)
	return propcheck.Gen[expCase]{
		Generate: func(r *propcheck.Rand) expCase {
			return expCase{pointCounts: counts.Generate(r), min: r.IntRange(0, 8)}
		},
		Describe: func(c expCase) string { return fmt.Sprintf("{points=%v min=%d}", c.pointCounts, c.min) },
	}
}

func buildExperiment(pointCounts []int) *measurement.Experiment {
	exp := measurement.NewExperiment(measurement.Parameter{Name: "p"})
	for i, n := range pointCounts {
		path := fmt.Sprintf("kernel%d", i)
		for j := 0; j < n; j++ {
			_ = exp.Add(measurement.MetricTime, path, measurement.Point{float64(int(1) << j)}, 1.0)
		}
	}
	return exp
}

// TestPropFilterInsufficientExact: FilterInsufficient(min) removes exactly
// the series with fewer than min distinct points (the ≥5-configuration
// kernel filter, step (4) of Fig. 2) and reports that count.
func TestPropFilterInsufficientExact(t *testing.T) {
	propcheck.Check(t, expCaseGen(), func(c expCase) error {
		exp := buildExperiment(c.pointCounts)
		wantRemoved := 0
		for _, n := range c.pointCounts {
			if n < c.min {
				wantRemoved++
			}
		}
		removed := exp.FilterInsufficient(c.min)
		if removed != wantRemoved {
			return fmt.Errorf("removed %d series, want %d", removed, wantRemoved)
		}
		for i, n := range c.pointCounts {
			s := exp.Series(measurement.MetricTime, fmt.Sprintf("kernel%d", i))
			if (n >= c.min) != (s != nil) {
				return fmt.Errorf("series with %d points survived=%v under min=%d", n, s != nil, c.min)
			}
			if s != nil && s.Len() < c.min {
				return fmt.Errorf("surviving series has %d < %d points", s.Len(), c.min)
			}
		}
		return nil
	})
}

// TestPropFilterInsufficientMonotone: raising the threshold only ever
// removes more series — the surviving set at min+k is a subset of the
// surviving set at min — and filtering twice at the same threshold is
// idempotent.
func TestPropFilterInsufficientMonotone(t *testing.T) {
	propcheck.Check(t, expCaseGen(), func(c expCase) error {
		loose := buildExperiment(c.pointCounts)
		strict := buildExperiment(c.pointCounts)
		loose.FilterInsufficient(c.min)
		strict.FilterInsufficient(c.min + 2)
		for _, path := range strict.Callpaths(measurement.MetricTime) {
			if loose.Series(measurement.MetricTime, path) == nil {
				return fmt.Errorf("series %s survives min=%d but not min=%d", path, c.min+2, c.min)
			}
		}
		if again := loose.FilterInsufficient(c.min); again != 0 {
			return fmt.Errorf("second filter at min=%d removed %d more series", c.min, again)
		}
		return nil
	})
}
