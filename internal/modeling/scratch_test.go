package modeling

import (
	"math"
	"slices"
	"testing"

	"extradeep/internal/measurement"
	"extradeep/internal/pmnf"
)

// gridTask is a 5×5 two-parameter fit task over f on a ranks × batch
// grid, with normalized strong-scaling options.
func gridTask(f func(p, b float64) float64) ([]measurement.Point, []float64, Options) {
	var pts []measurement.Point
	var vals []float64
	for _, p := range []float64{2, 4, 8, 16, 32} {
		for _, b := range []float64{32, 64, 128, 256, 512} {
			pts = append(pts, measurement.Point{p, b})
			vals = append(vals, f(p, b))
		}
	}
	return pts, vals, normalizeOptions(StrongScalingOptions())
}

// frozen returns a copy of m whose Function is a deep copy, to compare m
// against itself later with sameModelBits.
func frozen(m *Model) *Model {
	c := *m
	c.Function = &pmnf.Function{Constant: m.Function.Constant}
	for _, t := range m.Function.Terms {
		c.Function.Terms = append(c.Function.Terms, pmnf.Term{Coefficient: t.Coefficient, Factors: slices.Clone(t.Factors)})
	}
	return &c
}

// TestPooledScratchNeverLeaksIntoModel fits two different two-parameter
// series one after the other through the scratch pool: the second fit
// rebuilds its hypothesis space and candidate coefficients in the scratch
// the first one returned, so a first Model aliasing that scratch would
// change under it.
func TestPooledScratchNeverLeaksIntoModel(t *testing.T) {
	p1, v1, opts := gridTask(func(p, b float64) float64 { return 10 + 0.5*p*math.Log2(b) })
	p2, v2, _ := gridTask(func(p, b float64) float64 { return 3 + 40/p + 0.01*b*b })
	first, err := fitValidated(p1, v1, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := frozen(first)
	var second *Model
	// The race detector makes sync.Pool drop some Puts; several fits make
	// a reuse of the first fit's scratch near certain.
	for i := 0; i < 4; i++ {
		if second, err = fitValidated(p2, v2, opts); err != nil {
			t.Fatal(err)
		}
	}
	if sameModelBits(second, before) == nil {
		t.Fatalf("both tasks selected %s; the second must differ to overwrite the scratch", second.Function)
	}
	if err := sameModelBits(first, before); err != nil {
		t.Errorf("first model changed after the second fit: %v", err)
	}
	ref, err := fitOracle(p1, v1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameModelBits(first, ref); err != nil {
		t.Error(err)
	}
}

// TestFunctionOwnsItsFactors checks the winner's Function directly: it
// must not share a factor slice with the hypothesis it was built from.
func TestFunctionOwnsItsFactors(t *testing.T) {
	var sp hypothesisSpace
	sp.reset(1, 2, 3)
	sp.add(sp.term(basisCol{f: pmnf.Factor{PolyExp: 1}}), sp.term(basisCol{f: pmnf.Factor{PolyExp: 0.5, Param: 1}}, basisCol{f: pmnf.Factor{LogExp: 1}}))
	m := &Model{Function: function(sp.hyps[0], []float64{1, 2, 3})}
	before := frozen(m)
	for i := range sp.factors {
		sp.factors[i] = pmnf.Factor{PolyExp: -7, LogExp: 9, Param: 5}
	}
	if err := sameModelBits(m, before); err != nil {
		t.Errorf("function aliases the hypothesis slab: %v", err)
	}
}

// TestSparseSearchSteadyStateAllocs bounds the allocations of one 5×5
// two-parameter fit through the scratch pool. On warm scratch it makes
// ~13 allocations, and fresh scratch, which the race detector's pool
// drops can hand out, adds the scratch's own; while every task cut its
// axis lines and copied its points it made ~34 warm, with a string cache
// key for the exponent sets ~75, and with the per-hypothesis Terms and
// Factors and the per-candidate Function it used to build ~870. The hypothesis space
// holds ~230 hypotheses, so even one allocation per hypothesis coming
// back exceeds the bound.
func TestSparseSearchSteadyStateAllocs(t *testing.T) {
	pts, vals, opts := gridTask(func(p, b float64) float64 { return 10 + 0.5*p*math.Log2(b) })
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := fitValidated(pts, vals, opts); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 145
	t.Logf("%.0f allocs per 5×5 fit", allocs)
	if allocs > bound {
		t.Errorf("a 5×5 two-parameter fit allocates %.0f times, above %d", allocs, bound)
	}
}

// TestFitSeriesLeavesSeriesUntouched is the regression test for
// aggregateSeries sorting the caller's samples in place: the series must
// keep its order, and the fit must equal the fit of the sorted series.
func TestFitSeriesLeavesSeriesUntouched(t *testing.T) {
	xs := []float64{16, 2, 8, 4, 32, 64}
	var s measurement.Series
	for _, x := range xs {
		s.Add(measurement.Point{x}, 3*x, 3*x+1, 3*x-1)
	}
	m, err := FitSeries(&s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if got := s.Samples[i].Point[0]; got != x {
			t.Fatalf("FitSeries reordered its input: Samples[%d] at %v, want %v", i, got, x)
		}
	}
	var sorted measurement.Series
	for _, x := range []float64{2, 4, 8, 16, 32, 64} {
		sorted.Add(measurement.Point{x}, 3*x, 3*x+1, 3*x-1)
	}
	want, err := FitSeries(&sorted, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameModelBits(m, want); err != nil {
		t.Error(err)
	}
	for i, p := range m.Points {
		if p[0] != sorted.Samples[i].Point[0] {
			t.Errorf("model point %d at %v, want the sorted order's %v", i, p[0], sorted.Samples[i].Point[0])
		}
	}
}
