package modeling

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"extradeep/internal/measurement"
	"extradeep/internal/pmnf"
	"extradeep/internal/propcheck"
)

// These tests pin the central contract of the design-matrix engine: for
// every input, the fast path (fitValidated on a fitContext) and the
// frozen direct-solve oracle (oracle.go) must agree bit for bit — same
// accepted hypotheses, same winning model, same coefficient, SMAPE and
// RSS bits — and must fail with the same error when no model exists.
// They call both paths directly, so they compare the engine with the
// oracle under EDFIT_ORACLE too.

// sameModelBits reports the first bit-level difference between two fitted
// models, or nil when they are identical in every selection-relevant
// field.
func sameModelBits(fast, ref *Model) error {
	if got, want := fast.Function.String(), ref.Function.String(); got != want {
		return fmt.Errorf("winning hypothesis differs: engine %q, oracle %q", got, want)
	}
	if got, want := math.Float64bits(fast.Function.Constant), math.Float64bits(ref.Function.Constant); got != want {
		return fmt.Errorf("constant bits differ: engine %x (%g), oracle %x (%g)",
			got, fast.Function.Constant, want, ref.Function.Constant)
	}
	if len(fast.Function.Terms) != len(ref.Function.Terms) {
		return fmt.Errorf("term count differs: engine %d, oracle %d", len(fast.Function.Terms), len(ref.Function.Terms))
	}
	for i, ft := range fast.Function.Terms {
		rt := ref.Function.Terms[i]
		if got, want := math.Float64bits(ft.Coefficient), math.Float64bits(rt.Coefficient); got != want {
			return fmt.Errorf("term %d coefficient bits differ: engine %x (%g), oracle %x (%g)",
				i, got, ft.Coefficient, want, rt.Coefficient)
		}
		if len(ft.Factors) != len(rt.Factors) {
			return fmt.Errorf("term %d factor count differs", i)
		}
		for j, f := range ft.Factors {
			if f != rt.Factors[j] {
				return fmt.Errorf("term %d factor %d differs: engine %+v, oracle %+v", i, j, f, rt.Factors[j])
			}
		}
	}
	for _, c := range []struct {
		name       string
		fast, refV float64
	}{
		{"SMAPE", fast.SMAPE, ref.SMAPE},
		{"RSS", fast.RSS, ref.RSS},
		{"R2", fast.R2, ref.R2},
		{"RelResidualStd", fast.RelResidualStd, ref.RelResidualStd},
	} {
		if math.Float64bits(c.fast) != math.Float64bits(c.refV) {
			return fmt.Errorf("%s bits differ: engine %g (%x), oracle %g (%x)",
				c.name, c.fast, math.Float64bits(c.fast), c.refV, math.Float64bits(c.refV))
		}
	}
	return nil
}

// checkEquivalence runs both paths on the same normalized, validated
// inputs and demands identical outcomes — errors included.
func checkEquivalence(points []measurement.Point, values []float64, opts Options) error {
	opts = normalizeOptions(opts)
	if err := validateFitInputs(points, values, opts); err != nil {
		return nil // both paths share Fit's input validation
	}
	fast, fastErr := fitValidated(points, values, opts)
	ref, refErr := fitOracle(points, values, opts)
	switch {
	case fastErr == nil && refErr != nil:
		return fmt.Errorf("engine fitted but oracle failed: %v", refErr)
	case fastErr != nil && refErr == nil:
		return fmt.Errorf("oracle fitted but engine failed: %v", fastErr)
	case fastErr != nil:
		if fastErr.Error() != refErr.Error() {
			return fmt.Errorf("errors differ: engine %q, oracle %q", fastErr, refErr)
		}
		return nil
	}
	return sameModelBits(fast, ref)
}

// pressAgrees checks every hypothesis of hyps that the guard decides on
// the PRESS path against its exact replay: the same accept/reject
// verdict and, when accepted, a replayed CV-SMAPE inside the PRESS
// interval. It reports how many hypotheses the guard decided and how
// many it declined (left to the replay).
func pressAgrees(points []measurement.Point, values []float64, opts Options, hyps []hypothesis) (decided, declined int, err error) {
	fc := newFitContext(points, values, opts)
	fc.bind(new(fitScratch))
	for _, h := range hyps {
		if !fc.solveFull(h) || len(points)-1 < len(h.terms)+1 {
			continue
		}
		s, ok, dec := fc.press()
		if !dec {
			declined++
			continue
		}
		decided++
		exact, eok := fc.crossValidate(h)
		if ok != eok {
			return decided, declined, fmt.Errorf("hypothesis %v: PRESS accepts=%v, replay accepts=%v", h.terms, ok, eok)
		}
		if ok && (exact < s.lo() || exact > s.hi()) {
			return decided, declined, fmt.Errorf("hypothesis %v: replayed CV-SMAPE %v outside the PRESS interval [%v, %v]", h.terms, exact, s.lo(), s.hi())
		}
	}
	return decided, declined, nil
}

// checkPress runs pressAgrees over a task's whole search: the selection
// hypotheses and, for multi-parameter tasks, every parameter's stage-1
// shapes on its axis line. opts must be normalized.
func checkPress(points []measurement.Point, values []float64, opts Options) error {
	arity := len(points[0])
	if arity == 1 {
		_, _, err := pressAgrees(points, values, opts, hypotheses(opts))
		return err
	}
	hyps := sparseSearch(arity, buildShapes(opts), oracleRanker(points, values, opts), nil)
	if _, _, err := pressAgrees(points, values, opts, hyps); err != nil {
		return err
	}
	shapes := len(buildShapes(opts))
	for p := 0; p < arity; p++ {
		lp, lv := axisLine(points, values, p)
		if len(lp) < 3 {
			continue
		}
		if _, _, err := pressAgrees(lp, lv, opts, hyps[1+p*shapes:1+(p+1)*shapes]); err != nil {
			return fmt.Errorf("axis line %d: %w", p, err)
		}
	}
	return nil
}

func TestEngineMatchesOracleCanonical(t *testing.T) {
	xs := []float64{2, 4, 6, 8, 10}
	mk := func(f func(x float64) float64) ([]measurement.Point, []float64) {
		points := make([]measurement.Point, len(xs))
		values := make([]float64, len(xs))
		for i, x := range xs {
			points[i] = measurement.Point{x}
			values[i] = f(x)
		}
		return points, values
	}
	cases := []struct {
		name string
		f    func(x float64) float64
		opts Options
	}{
		{"constant", func(x float64) float64 { return 42 }, DefaultOptions()},
		{"linear", func(x float64) float64 { return 3 + 2*x }, DefaultOptions()},
		{"quadratic", func(x float64) float64 { return 1 + 0.5*x*x }, DefaultOptions()},
		{"loglinear", func(x float64) float64 { return 5 + 3*x*math.Log2(x) }, DefaultOptions()},
		{"noisy", func(x float64) float64 { return 10 + x*math.Sqrt(x) + math.Sin(x*7)*0.4 }, DefaultOptions()},
		{"strongscaling", func(x float64) float64 { return 2 + 80/x }, StrongScalingOptions()},
		{"twoterms", func(x float64) float64 { return 1 + 2*x + 0.3*x*x }, LargeOptions()},
		{"smallspace", func(x float64) float64 { return 4 + x }, SmallOptions()},
		{"decreasing-negcoef", func(x float64) float64 { return 100 - 3*x }, DefaultOptions()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			points, values := mk(tc.f)
			if err := checkEquivalence(points, values, tc.opts); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEngineMatchesOracleMultiParam(t *testing.T) {
	var points []measurement.Point
	var values []float64
	for _, p := range []float64{2, 4, 8, 16} {
		for _, b := range []float64{32, 64, 128, 256} {
			points = append(points, measurement.Point{p, b})
			values = append(values, 3+0.5*p*math.Log2(p)+0.01*b+0.001*p*b)
		}
	}
	if err := checkEquivalence(points, values, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if err := checkEquivalence(points, values, StrongScalingOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestForceOracleRoutesFit(t *testing.T) {
	defer func(v bool) { forceOracle = v }(forceOracle)

	points := points1D(2, 4, 6, 8, 10)
	values := []float64{5, 9, 13, 17, 21}
	forceOracle = false
	fast, err := Fit(points, values, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	forceOracle = true
	viaFlag, err := Fit(points, values, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameModelBits(fast, viaFlag); err != nil {
		t.Fatalf("oracle flag changed the selected model: %v", err)
	}
}

// TestPropEngineOracleEquivalence sweeps randomized single-parameter
// datasets (noisy power laws, occasional log factors, decreasing
// sequences, tie-heavy near-constant data) across the option presets and
// demands bit-identical selection between engine and oracle.
func TestPropEngineOracleEquivalence(t *testing.T) {
	type eqCase struct {
		kind   int // 0 weak-scaling noisy, 1 strong-scaling, 2 near-constant ties
		a, c   float64
		e      float64
		noise  float64
		optSel int
	}
	gen := propcheck.Gen[eqCase]{
		Generate: func(r *propcheck.Rand) eqCase {
			exps := []float64{0, 0.5, 1, 1.5, 2, 3}
			return eqCase{
				kind:   r.Intn(3),
				a:      r.Float64Range(0, 50),
				c:      r.Float64Range(0.05, 20),
				e:      exps[r.Intn(len(exps))],
				noise:  r.Float64Range(0, 0.1),
				optSel: r.Intn(4),
			}
		},
		Describe: func(c eqCase) string {
			return fmt.Sprintf("{kind=%d y=%g+%g·x^%g noise=%g opts=%d}", c.kind, c.a, c.c, c.e, c.noise, c.optSel)
		},
	}
	xs := []float64{2, 4, 8, 16, 32, 64}
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 60}, gen, func(c eqCase) error {
		points := make([]measurement.Point, len(xs))
		values := make([]float64, len(xs))
		for i, x := range xs {
			points[i] = measurement.Point{x}
			switch c.kind {
			case 0:
				values[i] = c.a + c.c*math.Pow(x, c.e)
			case 1:
				values[i] = c.a + 1 + c.c/x
			default:
				values[i] = c.a + 1 // exactly constant: every shape ties
			}
			// Deterministic pseudo-noise derived from the case parameters —
			// reproducible under propcheck replay.
			values[i] *= 1 + c.noise*math.Sin(x*c.c+c.a)
		}
		var opts Options
		switch c.optSel {
		case 0:
			opts = DefaultOptions()
		case 1:
			opts = StrongScalingOptions()
		default:
			opts = LargeOptions()
		}
		return checkEquivalence(points, values, opts)
	})
}

// TestPropEngineOracleEquivalenceGrid does the same over randomized
// two-parameter grids, exercising the shared sparse hypothesis search
// (axis-line ranking, combination stage) on both paths. Product surfaces
// make a single multiplicative term f₁·f₂ the winner; the combination
// stage lists that term right after the two-term f₁+f₂, so its solve
// runs on normal-equation scratch sized for one more coefficient.
// Overflow surfaces put one parameter value of 1e103 first, in the
// middle and last on a 5×3 grid's axis line: x³ overflows to +Inf there,
// so the replay meets term columns with one non-finite row, which the
// oracle's folds reject all but one of.
func TestPropEngineOracleEquivalenceGrid(t *testing.T) {
	type gridCase struct {
		a, cp, cb, cross float64
		logp, product    bool
	}
	gen := propcheck.Gen[gridCase]{
		Generate: func(r *propcheck.Rand) gridCase {
			return gridCase{
				a:       r.Float64Range(1, 20),
				cp:      r.Float64Range(0.1, 5),
				cb:      r.Float64Range(0.001, 0.1),
				cross:   r.Float64Range(0, 0.01),
				logp:    r.Bool(),
				product: r.Bool(),
			}
		},
		Describe: func(c gridCase) string {
			return fmt.Sprintf("{a=%g cp=%g cb=%g cross=%g logp=%v product=%v}", c.a, c.cp, c.cb, c.cross, c.logp, c.product)
		},
	}
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 12}, gen, func(c gridCase) error {
		var points []measurement.Point
		var values []float64
		for _, p := range []float64{2, 4, 8, 16} {
			for _, b := range []float64{32, 64, 128, 256} {
				points = append(points, measurement.Point{p, b})
				v := c.a + c.cp*p + c.cb*b + c.cross*p*b
				if c.logp {
					v += c.cp * math.Log2(p)
				}
				if c.product {
					v = c.a + c.cp*p*math.Sqrt(b)
				}
				values = append(values, v)
			}
		}
		if err := checkEquivalence(points, values, DefaultOptions()); err != nil {
			return err
		}
		if c.product {
			m, err := Fit(points, values, DefaultOptions())
			if err != nil {
				return err
			}
			if terms := m.Function.Terms; len(terms) != 1 || len(terms[0].Factors) != 2 {
				return fmt.Errorf("product surface selected %s, want the single term p·b^(1/2)", m.Function)
			}
		}
		for _, at := range []int{0, 2, 4} {
			var pts []measurement.Point
			var vals []float64
			for _, p := range slices.Insert([]float64{2, 4, 8, 16}, at, 1e103) {
				for _, b := range []float64{32, 64, 128} {
					pts = append(pts, measurement.Point{p, b})
					vals = append(vals, c.a+c.cp*math.Log2(p)+c.cb*b)
				}
			}
			if err := checkEquivalence(pts, vals, DefaultOptions()); err != nil {
				return fmt.Errorf("overflow at axis position %d: %w", at, err)
			}
		}
		return nil
	})
}

// TestPropEngineOracleEquivalenceAdversarial drives engine ≡ oracle
// through numerically hostile single-parameter data, where the PRESS
// guard has to hand hypotheses to the exact replay: wide x ranges (up to
// 2²⁰) under x³·log₂²x bases, near-collinear bases on a narrow range,
// duplicate configurations whose folds go singular, a slope buried in
// noise so per-fold coefficient signs flip, exactly constant data where
// every shape ties, and tiny noise — under the option presets plus
// exponents spaced inside the growth comparison's tolerance. Every case
// must select bit-identical
// models, every PRESS decision must agree with its replay, and the guard
// must decline the kinds built to defeat it; across the run both the
// PRESS path and the replay must fire.
func TestPropEngineOracleEquivalenceAdversarial(t *testing.T) {
	type advCase struct {
		a, c, noise float64
		optSel      int
	}
	gen := propcheck.Gen[advCase]{
		Generate: func(r *propcheck.Rand) advCase {
			return advCase{
				a:      r.Float64Range(0.5, 50),
				c:      r.Float64Range(0.01, 10),
				noise:  r.Float64Range(0, 0.05),
				optSel: r.Intn(4),
			}
		},
		Describe: func(c advCase) string {
			return fmt.Sprintf("{a=%g c=%g noise=%g opts=%d}", c.a, c.c, c.noise, c.optSel)
		},
	}
	pow2 := []float64{2, 4, 8, 16, 32, 64}
	kinds := []struct {
		name     string
		xs       []float64
		y        func(c advCase, i int, x float64) float64
		declines bool // the guard must leave some hypothesis to the replay
	}{
		{"wide-x3log2", []float64{1, 16, 256, 4096, 65536, 1 << 20}, func(c advCase, i int, x float64) float64 {
			l := math.Log2(x)
			return (c.a + c.c*x*x*x*l*l) * (1 + c.noise*math.Sin(float64(i)*c.c+c.a))
		}, true},
		{"near-collinear", []float64{1000, 1001, 1002, 1003, 1004, 1005}, func(c advCase, i int, x float64) float64 {
			return (c.a + c.c*x) * (1 + c.noise*math.Sin(float64(i)*c.c+c.a))
		}, false},
		{"duplicates", []float64{4, 4, 4, 4, 4, 16}, func(c advCase, i int, x float64) float64 {
			return (c.a + c.c*x) * (1 + c.noise*math.Sin(float64(i)*c.c+c.a))
		}, true},
		{"sign-flip", pow2, func(c advCase, i int, x float64) float64 {
			return c.a*(1+0.05*math.Sin(float64(i)*c.c+c.a)) + 1e-4*c.c*x
		}, false},
		{"constant", pow2, func(c advCase, i int, x float64) float64 { return c.a }, true},
		{"tiny-noise", pow2, func(c advCase, i int, x float64) float64 {
			return (c.a + c.c*x*math.Sqrt(x)) * (1 + 1e-12*math.Sin(float64(i)*c.c+c.a))
		}, false},
	}
	scored0, replayed0 := guardScored.Load(), guardReplayed.Load()
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 12}, gen, func(c advCase) error {
		// The fourth preset spaces exponents closer than pmnf.Growth's
		// 1e-9 comparison tolerance, so growth ties are intransitive.
		nearTies := DefaultOptions()
		nearTies.PolyExponents = []float64{0.5, 1, 1 + 8e-10, 1 + 1.6e-9, 2}
		opts := []Options{DefaultOptions(), StrongScalingOptions(), LargeOptions(), nearTies}[c.optSel]
		for _, k := range kinds {
			points := make([]measurement.Point, len(k.xs))
			values := make([]float64, len(k.xs))
			for i, x := range k.xs {
				points[i] = measurement.Point{x}
				values[i] = k.y(c, i, x)
			}
			if err := checkEquivalence(points, values, opts); err != nil {
				return fmt.Errorf("%s: %w", k.name, err)
			}
			norm := normalizeOptions(opts)
			_, declined, err := pressAgrees(points, values, norm, hypotheses(norm))
			if err != nil {
				return fmt.Errorf("%s: %w", k.name, err)
			}
			if k.declines && declined == 0 {
				return fmt.Errorf("%s: the guard decided every hypothesis on the PRESS path", k.name)
			}
		}
		return nil
	})
	scored, replayed := guardScored.Load()-scored0, guardReplayed.Load()-replayed0
	if replayed == 0 || replayed >= scored {
		t.Fatalf("guard scored %d hypotheses and replayed %d: both branches must fire", scored, replayed)
	}
}

// TestPressSpreadMinMatchesMathMin pins the builtin min that press caps
// each fold's SMAPE spread with, min(2, v), against the math.Min it
// replaced: the same bits for every v, NaN, ±Inf and ±0 included, so no
// score or guard decision moves. The two differ on one pair only, a NaN
// against −Inf (math.Min gives −Inf, min NaN), which the constant 2 never
// is.
func TestPressSpreadMinMatchesMathMin(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 2, 1, 3, -5, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, a := range vals {
		for _, b := range vals {
			got, want := min(a, b), math.Min(a, b)
			switch {
			case math.IsNaN(a) && math.IsInf(b, -1) || math.IsInf(a, -1) && math.IsNaN(b):
				if !math.IsNaN(got) || !math.IsInf(want, -1) {
					t.Errorf("min(%g, %g) = %g and math.Min %g, want NaN and -Inf", a, b, got, want)
				}
			case math.IsNaN(want):
				if !math.IsNaN(got) {
					t.Errorf("min(%g, %g) = %g, math.Min gives NaN", a, b, got)
				}
			case math.Float64bits(got) != math.Float64bits(want):
				t.Errorf("min(%g, %g) = %g (%x), math.Min gives %g (%x)", a, b, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestSettleReplaysDecidingCandidates pins, one decision at a time,
// which candidates a settle round hands to the exact replay. Scores are
// set by hand (the replay then computes the real ones), so each case
// puts intervals exactly where the decision is.
func TestSettleReplaysDecidingCandidates(t *testing.T) {
	points := points1D(2, 4, 8, 16, 32, 64)
	values := make([]float64, len(points))
	for i, p := range points {
		values[i] = 3 + 0.5*p[0]*p[0]
	}
	// The search space holds every exponent the cases use, so the task's
	// fit-cache entry has their columns.
	opts := DefaultOptions()
	opts.PolyExponents = []float64{1, 1 + 1.6e-9, 2, 3}
	opts = normalizeOptions(opts)
	shape := func(e float64) hypothesis {
		for _, h := range hypotheses(opts) {
			if len(h.terms) == 1 && h.terms[0].Factors[0] == (pmnf.Factor{PolyExp: e}) {
				return h
			}
		}
		t.Fatalf("x^%g is not in the search space", e)
		return hypothesis{}
	}
	type score struct {
		exp        float64
		smape, err float64
		exact      bool
	}
	cases := []struct {
		name   string
		scores []score
		want   []bool // replayed in this round
	}{
		{"minimum", []score{{2, 1.0, 0.1, false}, {1, 1.05, 0.1, false}, {3, 2, 0.1, false}},
			[]bool{true, true, false}},
		// Threshold 0.02 + 0.05: only the second interval straddles it.
		{"threshold", []score{{2, 0.02, 0, true}, {1, 0.07, 0.001, false}, {3, 0.5, 0.01, false}, {1, 0.03, 0.001, false}},
			[]bool{false, true, false, false}},
		// x¹ grows slower than the head's x², so the x¹ candidates form
		// the tie group; only the two that could come first replay.
		{"tie-group", []score{{2, 0.01, 0, true}, {1, 0.02, 0.005, false}, {1, 0.024, 0.005, false}, {1, 0.045, 0.001, false}, {3, 0.03, 0.001, false}},
			[]bool{false, true, true, false, false}},
		// Growth degrees 1 and 1+1.6e-9 are within twice the comparison
		// tolerance but not within a quarter of it: every contender
		// replays.
		{"intransitive-growth", []score{{2, 0.01, 0, true}, {1, 0.02, 0.001, false}, {1 + 1.6e-9, 0.03, 0.001, false}, {3, 0.04, 0.001, false}, {3, 0.9, 0.01, false}},
			[]bool{false, true, true, true, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := newFitContext(points, values, opts)
			fc.bind(new(fitScratch))
			hyps := make([]hypothesis, len(tc.scores))
			cands := make([]candidate, len(tc.scores))
			for i, sc := range tc.scores {
				hyps[i] = shape(sc.exp)
				if !fc.solveFull(hyps[i]) {
					t.Fatalf("candidate %d: full-data fit failed", i)
				}
				cands[i] = fc.candidate(hyps[i], i, cvScore{smape: sc.smape, err: sc.err, exact: sc.exact}, 0)
			}
			fc.settleRound(hyps, cands)
			for i, want := range tc.want {
				if got := cands[i].cv.exact && !tc.scores[i].exact; got != want {
					t.Errorf("candidate %d (x^%g, %g±%g): replayed %v, want %v", i, tc.scores[i].exp, tc.scores[i].smape, tc.scores[i].err, got, want)
				}
			}
		})
	}
}

// TestSparseRankingTieBreakDeterministic exercises the explicit
// shape-identity tie-break of the stage-1 ranking (ratedLess): with
// exactly tied CV-SMAPE values the ranking no longer depends on the order
// the exponent sets enumerated in.
func TestSparseRankingTieBreakDeterministic(t *testing.T) {
	shapes := []pmnf.Factor{
		{PolyExp: 2, LogExp: 0},
		{PolyExp: 0.5, LogExp: 1},
		{PolyExp: 1, LogExp: 0},
		{PolyExp: 0.5, LogExp: 0},
		{PolyExp: 1, LogExp: 2},
	}
	perms := [][]int{
		{0, 1, 2, 3, 4},
		{4, 3, 2, 1, 0},
		{2, 4, 0, 3, 1},
	}
	var want []rated
	for pi, perm := range perms {
		rs := make([]rated, 0, len(shapes))
		for _, idx := range perm {
			rs = append(rs, rated{shape: shapes[idx], smape: 0.25}) // all tied
		}
		sort.SliceStable(rs, func(i, j int) bool { return ratedLess(rs[i], rs[j]) })
		if pi == 0 {
			want = rs
			for i := 1; i < len(rs); i++ {
				if ratedLess(rs[i], rs[i-1]) {
					t.Fatalf("sorted order violates ratedLess at %d", i)
				}
			}
			continue
		}
		for i := range rs {
			if rs[i].shape != want[i].shape {
				t.Fatalf("permutation %d: rank %d is %+v, want %+v — tie-break depends on insertion order",
					pi, i, rs[i].shape, want[i].shape)
			}
		}
	}
}

// TestSparseSelectionStableUnderExponentOrder drives the tie-break
// end-to-end: reordering the exponent sets changes shape enumeration
// order but must not change the selected model on tie-heavy data.
func TestSparseSelectionStableUnderExponentOrder(t *testing.T) {
	var points []measurement.Point
	var values []float64
	for _, p := range []float64{2, 4, 8, 16} {
		for _, b := range []float64{32, 64, 128, 256} {
			points = append(points, measurement.Point{p, b})
			values = append(values, 7) // constant surface: maximal ties
		}
	}
	fwd := DefaultOptions()
	rev := DefaultOptions()
	for i, j := 0, len(rev.PolyExponents)-1; i < j; i, j = i+1, j-1 {
		rev.PolyExponents[i], rev.PolyExponents[j] = rev.PolyExponents[j], rev.PolyExponents[i]
	}
	m1, err1 := Fit(points, values, fwd)
	m2, err2 := Fit(points, values, rev)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("outcome depends on exponent order: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	if err := sameModelBits(m1, m2); err != nil {
		t.Fatalf("selection depends on exponent enumeration order: %v", err)
	}
}

func TestAxisLineEdgeCases(t *testing.T) {
	t.Run("fewer-than-three-line-points", func(t *testing.T) {
		// Only two points share the minimum of parameter 1, so the axis
		// line through parameter 0 has 2 < 3 points and the sparse search
		// must fall back to the full set (pinned here via axisLine's
		// return; the fallback branch is in sparseSearch).
		points := []measurement.Point{{2, 32}, {4, 32}, {2, 64}, {4, 64}, {8, 64}}
		values := []float64{1, 2, 3, 4, 5}
		pts, vals := axisLine(points, values, 0)
		if len(pts) != 2 || len(vals) != 2 {
			t.Fatalf("axis line has %d points, want 2", len(pts))
		}
		// The full fit must still work through the fallback.
		if _, err := Fit(points, values, DefaultOptions()); err != nil {
			t.Fatalf("fallback fit failed: %v", err)
		}
	})
	t.Run("duplicate-configurations", func(t *testing.T) {
		points := []measurement.Point{{2, 32}, {2, 32}, {4, 32}, {8, 32}, {16, 32}}
		values := []float64{1.0, 1.1, 2, 3, 4}
		pts, vals := axisLine(points, values, 0)
		if len(pts) != 5 {
			t.Fatalf("duplicates must stay on the line: got %d points, want 5", len(pts))
		}
		for i, v := range vals {
			if v != values[i] {
				t.Fatalf("value %d changed: %g != %g", i, v, values[i])
			}
		}
	})
	t.Run("single-distinct-value-parameter", func(t *testing.T) {
		// Parameter 1 never varies: every point sits at its minimum, so
		// the parameter-0 axis line is the whole set.
		points := []measurement.Point{{2, 64}, {4, 64}, {8, 64}, {16, 64}, {32, 64}}
		values := []float64{1, 2, 3, 4, 5}
		pts, _ := axisLine(points, values, 0)
		if len(pts) != len(points) {
			t.Fatalf("axis line of a fixed parameter must keep all points: got %d, want %d", len(pts), len(points))
		}
		// The parameter-1 line keeps only the parameter-0 minimum.
		pts, _ = axisLine(points, values, 1)
		if len(pts) != 1 {
			t.Fatalf("line through the constant parameter: got %d points, want 1", len(pts))
		}
	})
}
