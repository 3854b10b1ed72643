package measurement

import (
	"math/rand"
	"reflect"
	"testing"

	"extradeep/internal/mathutil"
)

func TestPointKey(t *testing.T) {
	cases := []struct {
		p    Point
		want string
	}{
		{Point{4}, "(4)"},
		{Point{4, 256}, "(4,256)"},
		{Point{0.5}, "(0.5)"},
		{Point{}, "()"},
	}
	for _, c := range cases {
		if got := c.p.Key(); got != c.want {
			t.Errorf("Key(%v) = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestPointEqual(t *testing.T) {
	if !(Point{1, 2}).Equal(Point{1, 2}) {
		t.Error("equal points reported unequal")
	}
	if (Point{1, 2}).Equal(Point{1, 3}) {
		t.Error("unequal points reported equal")
	}
	if (Point{1}).Equal(Point{1, 2}) {
		t.Error("different arity reported equal")
	}
}

func TestPointLess(t *testing.T) {
	if !(Point{1, 9}).Less(Point{2, 0}) {
		t.Error("lexicographic order violated on first component")
	}
	if !(Point{1, 2}).Less(Point{1, 3}) {
		t.Error("lexicographic order violated on second component")
	}
	if (Point{1, 2}).Less(Point{1, 2}) {
		t.Error("point less than itself")
	}
	if !(Point{1}).Less(Point{1, 0}) {
		t.Error("shorter prefix should order first")
	}
}

func TestPointClone(t *testing.T) {
	p := Point{1, 2}
	q := p.Clone()
	q[0] = 99
	if !mathutil.Close(p[0], 1) {
		t.Error("Clone aliases the original")
	}
}

func TestSampleMedian(t *testing.T) {
	s := Sample{Reps: []float64{3, 1, 2}}
	if m, ok := s.Median(); !ok || !mathutil.Close(m, 2) {
		t.Errorf("median = %v, want 2", m)
	}
}

func TestSeriesAddMergesSamePoint(t *testing.T) {
	var s Series
	s.Add(Point{4}, 1.0)
	s.Add(Point{4}, 2.0, 3.0)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if got := len(s.Samples[0].Reps); got != 3 {
		t.Errorf("reps = %d, want 3", got)
	}
}

func TestSeriesAddClonesPoint(t *testing.T) {
	var s Series
	p := Point{4}
	s.Add(p, 1.0)
	p[0] = 8
	if !mathutil.Close(s.Samples[0].Point[0], 4) {
		t.Error("Add aliased the caller's point")
	}
}

func TestSeriesSortAndPoints(t *testing.T) {
	var s Series
	s.Add(Point{8}, 1)
	s.Add(Point{2}, 1)
	s.Add(Point{4}, 1)
	s.Sort()
	pts := s.Points()
	if !mathutil.Close(pts[0][0], 2) || !mathutil.Close(pts[1][0], 4) || !mathutil.Close(pts[2][0], 8) {
		t.Errorf("sorted points = %v", pts)
	}
}

func TestSeriesMedians(t *testing.T) {
	var s Series
	s.Add(Point{2}, 1, 3)
	s.Add(Point{4}, 10)
	s.Sort()
	m := s.Medians()
	if !mathutil.Close(m[0], 2) || !mathutil.Close(m[1], 10) {
		t.Errorf("medians = %v, want [2 10]", m)
	}
}

func TestSeriesAt(t *testing.T) {
	var s Series
	s.Add(Point{2}, 5)
	if got := s.At(Point{2}); got == nil || !mathutil.Close(got.Reps[0], 5) {
		t.Error("At failed to find existing sample")
	}
	if s.At(Point{3}) != nil {
		t.Error("At found a non-existent sample")
	}
}

func TestExperimentAddAndSeries(t *testing.T) {
	e := NewExperiment(Parameter{Name: "p"})
	if err := e.Add(MetricTime, "App->train", Point{4}, 1.5); err != nil {
		t.Fatal(err)
	}
	s := e.Series(MetricTime, "App->train")
	if s == nil || s.Len() != 1 {
		t.Fatal("series not stored")
	}
	if e.Series(MetricVisits, "App->train") != nil {
		t.Error("unexpected series for unmeasured metric")
	}
	if e.Series(MetricTime, "nope") != nil {
		t.Error("unexpected series for unknown callpath")
	}
}

func TestExperimentAddArityMismatch(t *testing.T) {
	e := NewExperiment(Parameter{Name: "p"}, Parameter{Name: "b"})
	if err := e.Add(MetricTime, "k", Point{4}, 1); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestExperimentCallpathsSorted(t *testing.T) {
	e := NewExperiment(Parameter{Name: "p"})
	for _, k := range []string{"zeta", "alpha", "mid"} {
		if err := e.Add(MetricTime, k, Point{2}, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Callpaths(MetricTime)
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("callpaths = %v, want %v", got, want)
		}
	}
}

func TestExperimentMetrics(t *testing.T) {
	e := NewExperiment(Parameter{Name: "p"})
	_ = e.Add(MetricVisits, "k", Point{2}, 1)
	_ = e.Add(MetricBytes, "k", Point{2}, 1)
	ms := e.Metrics()
	if len(ms) != 2 || ms[0] != MetricBytes || ms[1] != MetricVisits {
		t.Errorf("metrics = %v", ms)
	}
}

func TestFilterInsufficient(t *testing.T) {
	e := NewExperiment(Parameter{Name: "p"})
	// Kernel seen at 5 configurations: kept.
	for _, x := range []float64{2, 4, 6, 8, 10} {
		_ = e.Add(MetricTime, "kept", Point{x}, 1)
	}
	// Kernel seen at 3 configurations: dropped.
	for _, x := range []float64{2, 4, 6} {
		_ = e.Add(MetricTime, "dropped", Point{x}, 1)
	}
	removed := e.FilterInsufficient(MinModelingPoints)
	if removed != 1 {
		t.Errorf("removed = %d, want 1", removed)
	}
	if e.Series(MetricTime, "dropped") != nil {
		t.Error("insufficient series survived filtering")
	}
	if e.Series(MetricTime, "kept") == nil {
		t.Error("sufficient series was removed")
	}
}

func TestFilterInsufficientDropsEmptyMetricMap(t *testing.T) {
	e := NewExperiment(Parameter{Name: "p"})
	_ = e.Add(MetricBytes, "only", Point{2}, 1)
	e.FilterInsufficient(MinModelingPoints)
	if len(e.Data) != 0 {
		t.Error("empty metric map not removed")
	}
}

// Property-style test: repetitions added in any order yield the same median.
func TestSeriesRepetitionOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		reps := make([]float64, n)
		for i := range reps {
			reps[i] = rng.Float64() * 100
		}
		var a, b Series
		a.Add(Point{2}, reps...)
		shuffled := append([]float64(nil), reps...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, r := range shuffled {
			b.Add(Point{2}, r)
		}
		ma, _ := a.Samples[0].Median()
		mb, _ := b.Samples[0].Median()
		if ma != mb {
			t.Fatalf("median differs by insertion order: %v vs %v", ma, mb)
		}
	}
}

// TestExperimentAddOwnedMatchesAdd: AddOwned builds the series Add builds
// — repetitions at an equal point merged, an empty point or repetition
// list stored as nil — while keeping the caller's slices and reserving
// the hinted capacity.
func TestExperimentAddOwnedMatchesAdd(t *testing.T) {
	type call struct {
		p    Point
		reps []float64
	}
	for _, params := range [][]Parameter{{{Name: "p"}}, nil} {
		calls := []call{{Point{2}, []float64{1, 2}}, {Point{4}, nil}, {Point{2}, []float64{3}}}
		if params == nil {
			calls = []call{{Point{}, []float64{}}, {nil, []float64{5}}}
		}
		viaAdd, owned := NewExperiment(params...), NewExperiment(params...)
		for _, c := range calls {
			if err := viaAdd.Add(MetricTime, "k", c.p, c.reps...); err != nil {
				t.Fatal(err)
			}
			if err := owned.AddOwned(MetricTime, "k", c.p.Clone(), append([]float64{}, c.reps...), 8); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(owned, viaAdd) {
			t.Errorf("params %v: AddOwned built %+v, Add %+v", params, owned.Series(MetricTime, "k"), viaAdd.Series(MetricTime, "k"))
		}
		if c := cap(owned.Series(MetricTime, "k").Samples); c != 8 {
			t.Errorf("params %v: samples capacity %d, want the hinted 8", params, c)
		}
	}
	exp := NewExperiment(Parameter{Name: "p"})
	reps := []float64{1, 2}
	if err := exp.AddOwned(MetricTime, "k", Point{2}, reps, 1); err != nil {
		t.Fatal(err)
	}
	reps[0] = 9
	if got := exp.Series(MetricTime, "k").Samples[0].Reps[0]; got != 9 {
		t.Errorf("AddOwned copied the repetitions: sample holds %v, want the caller's slice", got)
	}
}
