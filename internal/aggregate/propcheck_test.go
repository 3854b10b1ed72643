package aggregate_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"extradeep/internal/aggregate"
	"extradeep/internal/calltree"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/propcheck"
	"extradeep/internal/propcheck/edgen"
)

// permCase pairs the profiles of one configuration with a permutation of
// their order.
type permCase struct {
	profiles []*profile.Profile
	perm     []int
}

func permCaseGen() propcheck.Gen[permCase] {
	set := edgen.ProfileSet(edgen.SetShape{MaxConfigs: 1, MaxRanks: 4, MaxReps: 3})
	return propcheck.Gen[permCase]{
		Generate: func(r *propcheck.Rand) permCase {
			ps := set.Generate(r)
			return permCase{profiles: ps, perm: r.Perm(len(ps))}
		},
		Describe: func(c permCase) string {
			return fmt.Sprintf("{profiles=%d perm=%v}", len(c.profiles), c.perm)
		},
	}
}

// TestPropAggregatePermutationInvariance: aggregation over one
// configuration is invariant under any reordering of the input profiles —
// the median over steps, ranks and repetitions (Eq. 1, Fig. 2) does not
// depend on file-listing order.
func TestPropAggregatePermutationInvariance(t *testing.T) {
	propcheck.Check(t, permCaseGen(), func(c permCase) error {
		a, err := aggregate.Aggregate(c.profiles, aggregate.DefaultOptions())
		if err != nil {
			return fmt.Errorf("aggregating original order: %w", err)
		}
		shuffled := make([]*profile.Profile, len(c.profiles))
		for i, j := range c.perm {
			shuffled[i] = c.profiles[j]
		}
		b, err := aggregate.Aggregate(shuffled, aggregate.DefaultOptions())
		if err != nil {
			return fmt.Errorf("aggregating permuted order: %w", err)
		}
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("aggregate differs after permuting %d profiles", len(c.profiles))
		}
		return nil
	})
}

// TestPropAggregateDuplicateRepIdempotence: measuring every repetition
// twice (under fresh repetition indices) leaves the final median
// aggregates unchanged — the median of a duplicated multiset is the median
// of the original.
func TestPropAggregateDuplicateRepIdempotence(t *testing.T) {
	set := edgen.ProfileSet(edgen.SetShape{MaxConfigs: 1, MaxRanks: 3, MaxReps: 3})
	propcheck.Check(t, set, func(ps []*profile.Profile) error {
		orig, err := aggregate.Aggregate(ps, aggregate.DefaultOptions())
		if err != nil {
			return fmt.Errorf("aggregating original: %w", err)
		}
		maxRep := 0
		for _, p := range ps {
			if p.Rep > maxRep {
				maxRep = p.Rep
			}
		}
		doubled := append([]*profile.Profile(nil), ps...)
		for _, p := range ps {
			cp := *p
			cp.Rep = p.Rep + maxRep
			doubled = append(doubled, &cp)
		}
		dup, err := aggregate.Aggregate(doubled, aggregate.DefaultOptions())
		if err != nil {
			return fmt.Errorf("aggregating duplicated reps: %w", err)
		}
		for path, ka := range orig.Kernels {
			kb, ok := dup.Kernels[path]
			if !ok {
				return fmt.Errorf("kernel %s vanished after duplication", path)
			}
			for i, metric := range ka.Metrics() {
				va, vb := ka.Value[i], kb.Value[i]
				if !closeStepValue(va, vb) {
					return fmt.Errorf("kernel %s %s: value %+v changed to %+v after duplicating reps",
						path, metric, va, vb)
				}
			}
		}
		for cat, byMetric := range orig.Categories {
			for i, va := range byMetric {
				vb := dup.Categories[cat][i]
				if !closeStepValue(va, vb) {
					return fmt.Errorf("category %v %s: value %+v changed to %+v after duplicating reps",
						calltree.Category(cat), aggregate.MetricAt(i), va, vb)
				}
			}
		}
		return nil
	})
}

func closeStepValue(a, b aggregate.StepValue) bool {
	tol := func(x, y float64) bool { return math.Abs(x-y) <= 1e-12*(1+math.Abs(x)) }
	return tol(a.Train, b.Train) && tol(a.Validation, b.Validation)
}

// TestPropAggregateBoundedByStepDuration: the aggregated per-step time of
// any kernel never exceeds the longest step span it was observed in — a
// kernel cannot take longer than the step containing it.
func TestPropAggregateBoundedByStepDuration(t *testing.T) {
	set := edgen.ProfileSet(edgen.SetShape{MaxConfigs: 1, MaxRanks: 3, MaxReps: 2})
	propcheck.Check(t, set, func(ps []*profile.Profile) error {
		agg, err := aggregate.Aggregate(ps, aggregate.DefaultOptions())
		if err != nil {
			return fmt.Errorf("aggregating: %w", err)
		}
		maxStep := 0.0
		for _, p := range ps {
			for _, s := range p.Trace.Steps {
				if d := s.Duration(); d > maxStep {
					maxStep = d
				}
			}
		}
		for path, k := range agg.Kernels {
			sv := k.Value[aggregate.MetricIndex(measurement.MetricTime)]
			if sv.Train > maxStep+1e-9 || sv.Validation > maxStep+1e-9 {
				return fmt.Errorf("kernel %s per-step time %+v exceeds longest step %g", path, sv, maxStep)
			}
		}
		return nil
	})
}
