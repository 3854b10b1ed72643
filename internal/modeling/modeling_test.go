package modeling

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/pmnf"
)

func points1D(xs ...float64) []measurement.Point {
	out := make([]measurement.Point, len(xs))
	for i, x := range xs {
		out[i] = measurement.Point{x}
	}
	return out
}

func evalAll(fn func(float64) float64, xs ...float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = fn(x)
	}
	return out
}

func TestFitRecoversConstant(t *testing.T) {
	pts := points1D(2, 4, 8, 16, 32)
	vals := []float64{42, 42, 42, 42, 42}
	m, err := Fit(pts, vals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Function.Terms) != 0 {
		t.Errorf("expected constant model, got %s", m.Function)
	}
	if math.Abs(m.Function.Constant-42) > 1e-9 {
		t.Errorf("constant = %v, want 42", m.Function.Constant)
	}
}

func TestFitRecoversLinear(t *testing.T) {
	pts := points1D(2, 4, 8, 16, 32, 64)
	vals := evalAll(func(x float64) float64 { return 3 + 2*x }, 2, 4, 8, 16, 32, 64)
	m, err := Fit(pts, vals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := m.Function.Growth()
	if !mathutil.Close(g.PolyDegree, 1) || g.LogDegree != 0 {
		t.Fatalf("growth = %v (%s), want O(x)", g, m.Function)
	}
	if math.Abs(m.Predict(128)-(3+2*128)) > 1e-6 {
		t.Errorf("prediction at 128 = %v, want %v", m.Predict(128), 3+2*128.0)
	}
}

func TestFitRecoversLogarithmic(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32, 64}
	vals := evalAll(func(x float64) float64 { return 5 + 3*math.Log2(x) }, xs...)
	m, err := Fit(points1D(xs...), vals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := m.Function.Growth()
	if g.PolyDegree != 0 || g.LogDegree != 1 {
		t.Fatalf("growth = %v (%s), want O(log x)", g, m.Function)
	}
}

func TestFitRecoversQuadratic(t *testing.T) {
	xs := []float64{2, 4, 6, 8, 10, 12}
	vals := evalAll(func(x float64) float64 { return 1 + 0.5*x*x }, xs...)
	m, err := Fit(points1D(xs...), vals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g := m.Function.Growth(); !mathutil.Close(g.PolyDegree, 2) || g.LogDegree != 0 {
		t.Fatalf("growth = %v (%s), want O(x²)", g, m.Function)
	}
}

func TestFitRecoversCaseStudyShape(t *testing.T) {
	// The paper's case-study model: 158.58 + 0.58·x^(2/3)·log2(x)².
	truth := func(x float64) float64 {
		return 158.58 + 0.58*math.Pow(x, 2.0/3.0)*math.Pow(math.Log2(x), 2)
	}
	xs := []float64{2, 4, 6, 10, 14, 18, 24, 32}
	m, err := Fit(points1D(xs...), evalAll(truth, xs...), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Extrapolate to 64 ranks: error should be tiny on noise-free data.
	if e := m.PercentErrorAt(truth(64), 64); e > 1 {
		t.Errorf("extrapolation error at 64 = %v%% (model %s)", e, m.Function)
	}
}

func TestFitRejectsTooFewPoints(t *testing.T) {
	pts := points1D(2, 4, 8, 16)
	vals := []float64{1, 2, 3, 4}
	if _, err := Fit(pts, vals, DefaultOptions()); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("err = %v, want ErrTooFewPoints", err)
	}
}

func TestFitRejectsMismatchedLengths(t *testing.T) {
	if _, err := Fit(points1D(1, 2, 3, 4, 5), []float64{1}, DefaultOptions()); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestFitRejectsNonPositiveParams(t *testing.T) {
	pts := points1D(0, 2, 4, 8, 16)
	vals := []float64{1, 1, 1, 1, 1}
	if _, err := Fit(pts, vals, DefaultOptions()); err == nil {
		t.Error("zero parameter value accepted")
	}
}

func TestFitRejectsMixedArity(t *testing.T) {
	pts := []measurement.Point{{2}, {4}, {8}, {16}, {32, 1}}
	vals := []float64{1, 2, 3, 4, 5}
	if _, err := Fit(pts, vals, DefaultOptions()); err == nil {
		t.Error("mixed arity accepted")
	}
}

func TestFitWithNoiseStaysClose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	truth := func(x float64) float64 { return 100 + 4*x*math.Log2(x) }
	xs := []float64{2, 4, 8, 16, 32, 48, 64}
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = truth(x) * (1 + 0.02*rng.NormFloat64())
	}
	m, err := Fit(points1D(xs...), vals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{96, 128} {
		if e := m.PercentErrorAt(truth(x), x); e > 25 {
			t.Errorf("noisy extrapolation error at %v = %v%% (%s)", x, e, m.Function)
		}
	}
}

func TestFitSeriesUsesMedian(t *testing.T) {
	var s measurement.Series
	for _, x := range []float64{2, 4, 8, 16, 32} {
		// Repetitions contain one gross outlier; the median ignores it.
		s.Add(measurement.Point{x}, 10, 10, 10, 1e6)
	}
	m, err := FitSeries(&s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Function.Constant-10) > 1e-6 || len(m.Function.Terms) != 0 {
		t.Errorf("model = %s, want constant 10", m.Function)
	}
}

func TestFitSeriesMeanIsOutlierSensitive(t *testing.T) {
	var s measurement.Series
	for _, x := range []float64{2, 4, 8, 16, 32} {
		s.Add(measurement.Point{x}, 10, 10, 10, 1e6)
	}
	opts := DefaultOptions()
	opts.UseMean = true
	m, err := FitSeries(&s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict(2) < 1000 {
		t.Errorf("mean aggregation should be dragged by the outlier, got %v", m.Predict(2))
	}
}

func TestFitSeriesNil(t *testing.T) {
	if _, err := FitSeries(nil, DefaultOptions()); err == nil {
		t.Error("nil series accepted")
	}
}

func TestFitSeriesEmptySample(t *testing.T) {
	var s measurement.Series
	s.Samples = append(s.Samples, measurement.Sample{Point: measurement.Point{2}})
	for _, x := range []float64{4, 8, 16, 32} {
		s.Add(measurement.Point{x}, 1)
	}
	if _, err := FitSeries(&s, DefaultOptions()); err == nil {
		t.Error("series with empty sample accepted")
	}
}

func TestPredictIntervalContainsPrediction(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32, 64}
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = (50 + 2*x) * (1 + 0.03*rng.NormFloat64())
	}
	m, err := Fit(points1D(xs...), vals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := m.PredictInterval(0.95, 128)
	pred := m.Predict(128)
	if !(lo <= pred && pred <= hi) {
		t.Errorf("interval [%v,%v] does not contain prediction %v", lo, hi, pred)
	}
	if hi-lo == 0 {
		t.Error("interval degenerate despite noisy fit")
	}
}

func TestPredictIntervalNoiselessIsTight(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32}
	vals := evalAll(func(x float64) float64 { return 7 + x }, xs...)
	m, err := Fit(points1D(xs...), vals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := m.PredictInterval(0.95, 64)
	if hi-lo > 1e-6*m.Predict(64) {
		t.Errorf("noise-free interval too wide: [%v, %v]", lo, hi)
	}
}

func TestModelQualityStatistics(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32}
	vals := evalAll(func(x float64) float64 { return 1 + 2*x }, xs...)
	m, err := Fit(points1D(xs...), vals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.SMAPE > 1e-6 {
		t.Errorf("SMAPE on exact fit = %v, want ≈0", m.SMAPE)
	}
	if m.RSS > 1e-12 {
		t.Errorf("RSS on exact fit = %v, want ≈0", m.RSS)
	}
	if math.Abs(m.R2-1) > 1e-9 {
		t.Errorf("R² = %v, want 1", m.R2)
	}
}

func TestNonNegativeCoefficientOption(t *testing.T) {
	// Strictly decreasing data: with NonNegativeCoefficients the fit falls
	// back to shapes with non-negative slope terms (effectively a constant
	// or near-constant fit); without it, a negative linear term is allowed
	// and fits far better.
	xs := []float64{2, 4, 8, 16, 32}
	vals := evalAll(func(x float64) float64 { return 100 - 2*x }, xs...)

	strict := DefaultOptions()
	mStrict, err := Fit(points1D(xs...), vals, strict)
	if err != nil {
		t.Fatal(err)
	}
	loose := DefaultOptions()
	loose.NonNegativeCoefficients = false
	mLoose, err := Fit(points1D(xs...), vals, loose)
	if err != nil {
		t.Fatal(err)
	}
	if mLoose.RSS > mStrict.RSS {
		t.Errorf("loose fit (%s, rss=%v) should beat strict fit (%s, rss=%v)",
			mLoose.Function, mLoose.RSS, mStrict.Function, mStrict.RSS)
	}
	if mLoose.RSS > 1e-9 {
		t.Errorf("negative-coefficient fit should be exact, rss = %v", mLoose.RSS)
	}
}

func TestTwoTermSearchSpace(t *testing.T) {
	// A genuinely two-term function: c0 + c1·x + c2·x·log(x) — the larger
	// search space should fit it exactly.
	truth := func(x float64) float64 { return 5 + 3*x + 0.5*x*math.Log2(x) }
	xs := []float64{2, 4, 8, 16, 32, 64, 128}
	m, err := Fit(points1D(xs...), evalAll(truth, xs...), LargeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e := m.PercentErrorAt(truth(256), 256); e > 2 {
		t.Errorf("two-term extrapolation error = %v%% (%s)", e, m.Function)
	}
}

func TestMultiParameterFit(t *testing.T) {
	// f(p, b) = 10 + 0.5·p·log2(b): a separable two-parameter surface over
	// a 5×5 grid.
	var pts []measurement.Point
	var vals []float64
	for _, p := range []float64{2, 4, 8, 16, 32} {
		for _, b := range []float64{32, 64, 128, 256, 512} {
			pts = append(pts, measurement.Point{p, b})
			vals = append(vals, 10+0.5*p*math.Log2(b))
		}
	}
	m, err := Fit(pts, vals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Predict(64, 1024)
	want := 10 + 0.5*64*10
	if math.Abs(pred-want)/want > 0.05 {
		t.Errorf("multi-param prediction = %v, want ≈%v (%s)", pred, want, m.Function)
	}
}

func TestMultiParameterAdditiveFit(t *testing.T) {
	// f(p, b) = 2·p + 3·log2(b): additive combination.
	var pts []measurement.Point
	var vals []float64
	for _, p := range []float64{2, 4, 8, 16, 32} {
		for _, b := range []float64{32, 64, 128, 256, 512} {
			pts = append(pts, measurement.Point{p, b})
			vals = append(vals, 2*p+3*math.Log2(b))
		}
	}
	m, err := Fit(pts, vals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Predict(64, 1024)
	want := 2*64 + 3*10.0
	if math.Abs(pred-want)/want > 0.05 {
		t.Errorf("additive prediction = %v, want ≈%v (%s)", pred, want, m.Function)
	}
}

func TestHypothesisCountSingleParam(t *testing.T) {
	opts := DefaultOptions()
	hyps := hypotheses(opts)
	// 19 poly × 3 log − 1 (constant shape) = 56 single-term hypotheses,
	// plus the constant hypothesis.
	want := 56 + 1
	if len(hyps) != want {
		t.Errorf("hypothesis count = %d, want %d", len(hyps), want)
	}
}

func TestHypothesisCountTwoTerms(t *testing.T) {
	opts := LargeOptions()
	hyps := hypotheses(opts)
	want := 1 + 56 + 56*55/2
	if len(hyps) != want {
		t.Errorf("hypothesis count = %d, want %d", len(hyps), want)
	}
}

func TestSmallOptionsSearchSpaceIsSmaller(t *testing.T) {
	small := len(hypotheses(SmallOptions()))
	def := len(hypotheses(DefaultOptions()))
	if small >= def {
		t.Errorf("small space (%d) not smaller than default (%d)", small, def)
	}
}

// Property: model selection is deterministic — fitting the same data twice
// yields the same function string.
func TestFitDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := []float64{2, 4, 8, 16, 32, 64}
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = (20 + x) * (1 + 0.05*rng.NormFloat64())
	}
	m1, err := Fit(points1D(xs...), vals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(points1D(xs...), vals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m1.Function.String() != m2.Function.String() {
		t.Errorf("non-deterministic selection: %s vs %s", m1.Function, m2.Function)
	}
}

// Property: fitting f(x)=c+a·x^i·log^j x recovers growth for random shapes.
func TestFitRecoversRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := []pmnf.Factor{
		{PolyExp: 1}, {PolyExp: 2}, {PolyExp: 0.5},
		{LogExp: 1}, {PolyExp: 1, LogExp: 1},
	}
	xs := []float64{2, 4, 8, 16, 32, 64, 128}
	for trial := 0; trial < 20; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		c0 := 1 + rng.Float64()*10
		c1 := 0.5 + rng.Float64()*5
		vals := make([]float64, len(xs))
		for i, x := range xs {
			vals[i] = c0 + c1*shape.Eval(x)
		}
		m, err := Fit(points1D(xs...), vals, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		wantG := pmnf.Growth{PolyDegree: shape.PolyExp, LogDegree: shape.LogExp}
		if g := m.Function.Growth(); g.Compare(wantG) != 0 {
			t.Errorf("trial %d: recovered growth %v, want %v (model %s)", trial, g, wantG, m.Function)
		}
	}
}

// ---------------------------------------------------------------------
// Regression tests for the typed error contract: Fit/FitSeries surface
// sentinel errors instead of relying on downstream guards.
// ---------------------------------------------------------------------

func TestFitMismatchedLengthsIsTypedError(t *testing.T) {
	_, err := Fit(points1D(2, 4, 8, 16, 32), []float64{1, 2}, DefaultOptions())
	if !errors.Is(err, ErrMismatchedLengths) {
		t.Errorf("err = %v, want ErrMismatchedLengths", err)
	}
	_, err = Fit(nil, []float64{1}, DefaultOptions())
	if !errors.Is(err, ErrMismatchedLengths) {
		t.Errorf("nil points: err = %v, want ErrMismatchedLengths", err)
	}
}

func TestFitDegenerateValuesIsNoHypothesis(t *testing.T) {
	// NaN observations make every hypothesis (including the constant)
	// unfittable; the typed sentinel must surface rather than a nil-model
	// panic downstream.
	vals := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	_, err := Fit(points1D(2, 4, 8, 16, 32), vals, DefaultOptions())
	if !errors.Is(err, ErrNoHypothesis) {
		t.Errorf("err = %v, want ErrNoHypothesis", err)
	}
}

func TestFitSeriesSurfacesNoHypothesis(t *testing.T) {
	var s measurement.Series
	for _, x := range []float64{2, 4, 8, 16, 32} {
		s.Add(measurement.Point{x}, math.NaN())
	}
	if _, err := FitSeries(&s, DefaultOptions()); !errors.Is(err, ErrNoHypothesis) {
		t.Errorf("err = %v, want ErrNoHypothesis", err)
	}
}

// ---------------------------------------------------------------------
// The fit cache: tasks over the same points, exponent sets and term
// budget share one basisEntry — columns and search space — and repeated
// Fit calls keep producing identical models.
// ---------------------------------------------------------------------

// rowsOf views points as the fit cache's rows.
func rowsOf(points []measurement.Point) [][]float64 {
	rows := make([][]float64, len(points))
	for i, p := range points {
		rows[i] = p
	}
	return rows
}

// fitCacheLen returns the number of published fit-cache entries.
func fitCacheLen() int {
	basisMu.RLock()
	defer basisMu.RUnlock()
	return len(basisCache)
}

// resetFitCache empties the fit cache.
func resetFitCache() {
	basisMu.Lock()
	clear(basisCache)
	basisMu.Unlock()
}

// checkEntry reports whether e is the complete entry for points and
// opts: it matches them, holds every shape's column at every parameter
// bit for bit, a design per column and the constant's, and for
// one-parameter rows the whole hypothesis list.
func checkEntry(e *basisEntry, points []measurement.Point, opts Options) error {
	if e == nil {
		return errors.New("no entry")
	}
	if !e.matches(points, opts) {
		return errors.New("entry keyed by other content")
	}
	rows := rowsOf(points)
	shapes := buildShapes(opts)
	if len(e.shapes) != len(shapes) || len(e.cols) != len(shapes)*len(rows[0]) {
		return fmt.Errorf("%d shapes and %d columns, want %d and %d", len(e.shapes), len(e.cols), len(shapes), len(shapes)*len(rows[0]))
	}
	if len(e.recs) != 1+len(e.cols) {
		return fmt.Errorf("%d designs for %d columns", len(e.recs), len(e.cols))
	}
	for s := range shapes {
		for p := range rows[0] {
			c := shapeCol(shapes, p, s)
			f, col, want := c.f, e.cols[c.idx], pmnf.FactorColumn(rows, c.f)
			if len(col) != len(want) {
				return fmt.Errorf("%v: column of %d rows, want %d", f, len(col), len(want))
			}
			for r := range want {
				if math.Float64bits(col[r]) != math.Float64bits(want[r]) {
					return fmt.Errorf("%v row %d: %g, want %g", f, r, col[r], want[r])
				}
			}
		}
	}
	if len(rows[0]) == 1 {
		if want := len(hypotheses(opts)); len(e.hyps) != want {
			return fmt.Errorf("%d hypotheses, want %d", len(e.hyps), want)
		}
	} else if e.hyps != nil {
		return errors.New("multi-parameter entry carries a hypothesis list")
	}
	return nil
}

func TestHypothesisMemoizationReturnsSharedSpace(t *testing.T) {
	opts := normalizeOptions(DefaultOptions())
	points := points1D(2, 4, 8, 16, 32)
	values := evalAll(func(x float64) float64 { return 10 + 2*x }, 2, 4, 8, 16, 32)
	fc1 := newFitContext(points, values, opts)
	fc2 := newFitContext(points1D(2, 4, 8, 16, 32), values, opts)
	if fc1.basis != fc2.basis {
		t.Fatal("second task over the same points built its own entry instead of reusing the cache")
	}
	if err := checkEntry(fc1.basis, points, opts); err != nil {
		t.Fatal(err)
	}
}

func TestFitCacheKeysTermBudget(t *testing.T) {
	points := points1D(2, 4, 8, 16, 32, 64)
	values := evalAll(func(x float64) float64 { return 3 + x + 0.5*x*x }, 2, 4, 8, 16, 32, 64)
	one, two := normalizeOptions(DefaultOptions()), normalizeOptions(LargeOptions())
	e1, e2 := sharedBasis(points, one), sharedBasis(points, two)
	if e1 == e2 {
		t.Fatal("MaxTerms 1 and 2 share one entry")
	}
	for _, c := range []struct {
		e    *basisEntry
		opts Options
	}{{e1, one}, {e2, two}} {
		if err := checkEntry(c.e, points, c.opts); err != nil {
			t.Fatalf("MaxTerms %d: %v", c.opts.MaxTerms, err)
		}
		if err := checkEquivalence(points, values, c.opts); err != nil {
			t.Fatalf("MaxTerms %d: %v", c.opts.MaxTerms, err)
		}
	}
	if len(e1.hyps) == len(e2.hyps) {
		t.Errorf("both term budgets got %d hypotheses", len(e1.hyps))
	}
}

// TestFitCachePastCap fits one more distinct point set than the cache
// holds: the last task still gets a complete, published entry, the cache
// never exceeds its cap, and every model matches the oracle bit for bit.
func TestFitCachePastCap(t *testing.T) {
	resetFitCache()
	defer resetFitCache()
	opts := normalizeOptions(DefaultOptions())
	for i := 0; i <= basisCacheCap; i++ {
		xs := []float64{2, 4, 8, 16, 32 + float64(i)/8}
		points := points1D(xs...)
		values := evalAll(func(x float64) float64 { return 5 + 0.25*x*math.Log2(x) }, xs...)
		if err := checkEquivalence(points, values, opts); err != nil {
			t.Fatalf("point set %d: %v", i, err)
		}
		if n := fitCacheLen(); n > basisCacheCap {
			t.Fatalf("point set %d: the cache holds %d entries, cap %d", i, n, basisCacheCap)
		}
		if i < basisCacheCap {
			continue
		}
		e := sharedBasis(points, opts)
		if err := checkEntry(e, points, opts); err != nil {
			t.Fatalf("past the cap: %v", err)
		}
		basisMu.RLock()
		published := basisCache[basisSignature(points, opts)]
		basisMu.RUnlock()
		if published != e {
			t.Fatal("past the cap: the entry was not published")
		}
	}
}

// TestFitCacheCollisionBuildsPrivateEntry plants another point set's entry
// under a task's key, as a hash collision would: the task gets a complete
// entry of its own and the planted one stays published.
func TestFitCacheCollisionBuildsPrivateEntry(t *testing.T) {
	resetFitCache()
	defer resetFitCache()
	opts := normalizeOptions(DefaultOptions())
	rows := points1D(3, 6, 12, 24, 48)
	other := points1D(3, 6, 12, 24, 49)
	sig := basisSignature(rows, opts)
	planted := newBasisEntry(other, opts)
	basisMu.Lock()
	basisCache[sig] = planted
	basisMu.Unlock()
	e := sharedBasis(rows, opts)
	if err := checkEntry(e, rows, opts); err != nil {
		t.Fatal(err)
	}
	basisMu.RLock()
	kept := basisCache[sig]
	basisMu.RUnlock()
	if kept != planted || fitCacheLen() != 1 {
		t.Error("the colliding task replaced the published entry")
	}
}

func TestMemoizedFitMatchesFreshFit(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32}
	vals := evalAll(func(x float64) float64 { return 10 + 2*x }, xs...)
	var first string
	for i := 0; i < 3; i++ {
		m, err := Fit(points1D(xs...), vals, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = m.Function.String()
		} else if got := m.Function.String(); got != first {
			t.Errorf("call %d: model %s, want %s", i, got, first)
		}
	}
}
