package aggregate

import (
	"math"
	"math/rand"
	"testing"

	"extradeep/internal/profile"
)

// Property: scaling every event duration by a constant k scales the
// aggregated time values by k (the pipeline is homogeneous of degree 1 in
// durations), while visits stay unchanged.
func TestAggregateHomogeneityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		k := 0.25 + rng.Float64()*4
		base := makeProfiles(2, 2, 0.01, 0.002)
		scaled := makeProfiles(2, 2, 0.01, 0.002)
		for _, p := range scaled {
			for i := range p.Trace.Events {
				p.Trace.Events[i].Duration *= k
			}
			// Keep steps/epochs valid: scale spans too.
			for i := range p.Trace.Steps {
				p.Trace.Steps[i].Start *= k
				p.Trace.Steps[i].End *= k
			}
			for i := range p.Trace.Epochs {
				p.Trace.Epochs[i].Start *= k
				p.Trace.Epochs[i].End *= k
			}
			for i := range p.Trace.Events {
				p.Trace.Events[i].Start *= k
			}
		}
		a, err := Aggregate(base, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Aggregate(scaled, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for path, ka := range a.Kernels {
			kb := b.Kernels[path]
			if kb == nil {
				t.Fatalf("kernel %s lost", path)
			}
			ta := ka.Value[idxTime]
			tb := kb.Value[idxTime]
			if math.Abs(tb.Train-k*ta.Train) > 1e-9*(1+tb.Train) {
				t.Fatalf("%s: train %v, want %v×%v", path, tb.Train, k, ta.Train)
			}
			va := ka.Value[idxVisits]
			vb := kb.Value[idxVisits]
			if va != vb {
				t.Fatalf("%s: visits changed under duration scaling", path)
			}
		}
	}
}

// Property: the order in which profiles are passed to Aggregate does not
// change the result (grouping by repetition and rank is internal).
func TestAggregateOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		ordered := makeProfiles(3, 3, 0.01, 0.002)
		shuffled := append([]*profile.Profile(nil), ordered...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		a, err := Aggregate(ordered, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Aggregate(shuffled, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for path, ka := range a.Kernels {
			kb := b.Kernels[path]
			if kb == nil {
				t.Fatalf("kernel %s lost under permutation", path)
			}
			if ka.Value[idxTime] != kb.Value[idxTime] {
				t.Fatalf("%s: aggregate changed under profile permutation", path)
			}
		}
	}
}

// Property: aggregated per-step time values are bounded by the longest
// profiled step duration (a kernel cannot spend more time in a step than
// the step itself, modulo the asynchronously attributed events).
func TestAggregateBoundedByStepProperty(t *testing.T) {
	profiles := makeProfiles(3, 2, 0.01, 0.002)
	var maxStep float64
	for _, p := range profiles {
		for _, s := range p.Trace.Steps {
			if d := s.Duration(); d > maxStep {
				maxStep = d
			}
		}
	}
	agg, err := Aggregate(profiles, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Allow a small slack for between-step async attribution.
	limit := maxStep * 1.2
	for path, k := range agg.Kernels {
		v := k.Value[idxTime]
		if v.Train > limit || v.Validation > limit {
			t.Errorf("%s: per-step value %v exceeds max step %v", path, v, maxStep)
		}
	}
}
