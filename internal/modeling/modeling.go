// Package modeling implements Extra-Deep's automated empirical model
// creation (Section 2.3 of the paper): it instantiates the Performance
// Model Normal Form with exponents drawn from configurable sets I and J,
// fits the coefficients of every hypothesis by linear regression, and
// selects the hypothesis with the smallest cross-validated symmetric mean
// absolute percentage error (SMAPE).
//
// Fitting runs on a per-task fitContext (see fitcontext.go) that
// evaluates every basis term once per configuration into cached columns,
// ranks each hypothesis's leave-one-out folds from one full-data
// factorization (PRESS), and replays the oracle's fold-by-fold solves
// exactly wherever selection is decided — bit-identical to the reference
// direct-solve oracle (oracle.go), which survives behind the EDFIT_ORACLE
// flag for verification.
package modeling

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/pmnf"
)

// Options steers hypothesis-space generation and model selection.
type Options struct {
	// PolyExponents is the exponent set I for the polynomial part.
	PolyExponents []float64
	// LogExponents is the exponent set J for the logarithmic part.
	LogExponents []int
	// MaxTerms is the maximum number of non-constant terms h per model.
	// The constant c₀ is always present. Extra-P's default is 1 for
	// single-parameter models.
	MaxTerms int
	// UseMean selects mean instead of median aggregation over repetitions
	// (for the noise-resilience ablation).
	UseMean bool
	// MinPoints is the minimum number of measurement points required;
	// zero means measurement.MinModelingPoints (= 5).
	MinPoints int
	// NonNegativeCoefficients rejects hypotheses whose fitted leading
	// coefficients are negative; performance metrics of scaling
	// applications are typically non-decreasing, and negative terms tend
	// to extrapolate into nonsense. The constant may still be any sign.
	NonNegativeCoefficients bool
}

// DefaultOptions returns the Extra-P default search space: polynomial
// exponents in {0, 1/4, 1/3, 1/2, 2/3, 3/4, 1, 5/4, 4/3, 3/2, 5/3, 7/4, 2,
// 9/4, 7/3, 5/2, 8/3, 11/4, 3} and logarithmic exponents in {0, 1, 2},
// with a single non-constant term.
func DefaultOptions() Options {
	return Options{
		PolyExponents: []float64{
			0, 1.0 / 4, 1.0 / 3, 1.0 / 2, 2.0 / 3, 3.0 / 4, 1,
			5.0 / 4, 4.0 / 3, 3.0 / 2, 5.0 / 3, 7.0 / 4, 2,
			9.0 / 4, 7.0 / 3, 5.0 / 2, 8.0 / 3, 11.0 / 4, 3,
		},
		LogExponents:            []int{0, 1, 2},
		MaxTerms:                1,
		NonNegativeCoefficients: true,
	}
}

// StrongScalingOptions extends the default search space with negative
// polynomial exponents, which are required to model runtimes that shrink
// with scale (strong scaling: T ≈ a + b·x⁻¹ or b·log(x)/x). The positive
// shapes remain available, so weak-scaling data still fits.
func StrongScalingOptions() Options {
	o := DefaultOptions()
	neg := []float64{-1.0 / 4, -1.0 / 3, -1.0 / 2, -2.0 / 3, -3.0 / 4, -1, -4.0 / 3, -3.0 / 2, -2}
	o.PolyExponents = append(neg, o.PolyExponents...)
	return o
}

// SmallOptions returns a reduced search space (integer exponents only),
// used by the search-space ablation.
func SmallOptions() Options {
	o := DefaultOptions()
	o.PolyExponents = []float64{0, 1, 2, 3}
	return o
}

// LargeOptions returns an enlarged search space with two compound terms,
// used by the search-space ablation.
func LargeOptions() Options {
	o := DefaultOptions()
	o.MaxTerms = 2
	return o
}

// normalizeOptions resolves every zero-valued search-space knob to its
// default in one place: MaxTerms ≤ 0 becomes 1, empty exponent sets take
// the Extra-P defaults, and MinPoints 0 becomes
// measurement.MinModelingPoints. (These blocks used to be duplicated
// across Fit and its callers.)
func normalizeOptions(opts Options) Options {
	if opts.MaxTerms <= 0 {
		opts.MaxTerms = 1
	}
	if len(opts.PolyExponents) == 0 || len(opts.LogExponents) == 0 {
		def := DefaultOptions()
		if len(opts.PolyExponents) == 0 {
			opts.PolyExponents = def.PolyExponents
		}
		if len(opts.LogExponents) == 0 {
			opts.LogExponents = def.LogExponents
		}
	}
	if opts.MinPoints == 0 {
		opts.MinPoints = measurement.MinModelingPoints
	}
	return opts
}

// EffectiveMinPoints returns MinPoints with the zero value resolved to
// the paper's default of measurement.MinModelingPoints.
func (o Options) EffectiveMinPoints() int {
	if o.MinPoints == 0 {
		return measurement.MinModelingPoints
	}
	return o.MinPoints
}

// Unset reports whether the options carry no explicit search space —
// neither exponent sets nor a term budget — so callers substituting a
// context-dependent default (e.g. strong-scaling exponents) know the
// user left the space unconfigured.
func (o Options) Unset() bool {
	return len(o.PolyExponents) == 0 && o.MaxTerms == 0
}

// Model is a fitted performance model together with its quality statistics.
type Model struct {
	// Function is the selected PMNF instance.
	Function *pmnf.Function
	// SMAPE is the cross-validated symmetric mean absolute percentage
	// error (percent) that selected this hypothesis.
	SMAPE float64
	// RSS is the residual sum of squares on the modeling points.
	RSS float64
	// R2 is the coefficient of determination on the modeling points
	// (NaN when the data has no variance).
	R2 float64
	// RelResidualStd is the standard deviation of the relative residuals
	// (predicted−actual)/actual on the modeling points; it widens the
	// prediction intervals multiplicatively with the predicted value.
	RelResidualStd float64
	// Points and Actual are the modeling inputs the model was fitted on.
	Points []measurement.Point
	// Actual holds the aggregated (median or mean) observations at Points.
	Actual []float64
}

// Predict evaluates the model at the given parameter values.
func (m *Model) Predict(params ...float64) float64 { return m.Function.Eval(params...) }

// PredictInterval returns the two-sided confidence interval of level conf
// (e.g. 0.95) around the prediction at the given point, based on the
// relative residual spread of the fit and a Student-t quantile with
// n−k degrees of freedom.
func (m *Model) PredictInterval(conf float64, params ...float64) (lo, hi float64) {
	pred := m.Predict(params...)
	df := len(m.Points) - (len(m.Function.Terms) + 1)
	if df < 1 {
		df = 1
	}
	t := mathutil.StudentTQuantile(0.5+conf/2, df)
	if math.IsNaN(t) {
		return pred, pred
	}
	delta := math.Abs(pred) * m.RelResidualStd * t
	return pred - delta, pred + delta
}

// PercentErrorAt returns the absolute percentage error of the model's
// prediction against an observed value at the given point.
func (m *Model) PercentErrorAt(actual float64, params ...float64) float64 {
	return mathutil.AbsPercentError(m.Predict(params...), actual)
}

// ErrTooFewPoints reports insufficient measurement points for modeling.
var ErrTooFewPoints = measurement.ErrTooFewPoints

// ErrNoHypothesis is returned when the hypothesis set is empty or every
// generated hypothesis failed to fit (e.g. degenerate inputs such as
// all-identical points).
var ErrNoHypothesis = errors.New("modeling: no fittable hypothesis")

// ErrMismatchedLengths is returned when the number of points and the
// number of observed values disagree.
var ErrMismatchedLengths = errors.New("modeling: points/values length mismatch")

// Fit creates a performance model from measurement points and their
// aggregated observations. All points must have the same arity; the number
// of distinct points must be at least Options.MinPoints (default 5).
func Fit(points []measurement.Point, values []float64, opts Options) (*Model, error) {
	f, err := NewFitter(points, values, opts)
	if err != nil {
		return nil, err
	}
	return f.Fit()
}

// FitSeries aggregates each sample of the series (median by default, mean
// with Options.UseMean) and fits a model on the aggregated values.
func FitSeries(s *measurement.Series, opts Options) (*Model, error) {
	f, err := NewSeriesFitter(s, opts)
	if err != nil {
		return nil, err
	}
	return f.Fit()
}

// sparseTopShapes is the number of best single-parameter shapes per
// parameter that enter the combination stage of sparse modeling.
const sparseTopShapes = 4

// rated is one stage-1 ranking entry of the sparse search: a
// single-parameter shape and its cross-validated SMAPE on the axis line.
type rated struct {
	shape pmnf.Factor
	smape float64
}

// ratedLess orders stage-1 rankings: primarily by CV-SMAPE, with SMAPE
// ties broken by shape identity (polynomial exponent, then log exponent).
// The secondary key makes the former insertion-order tie-break explicit:
// the top shapes of a tied rank no longer depend on the order the
// exponent sets happened to enumerate in.
func ratedLess(a, b rated) bool {
	//edlint:ignore floateq tie detection: only exactly equal CV-SMAPE values fall through to the shape-identity key
	if a.smape != b.smape {
		return a.smape < b.smape
	}
	//edlint:ignore floateq shape identity: exponents come verbatim from the finite option sets, equality is exact
	if a.shape.PolyExp != b.shape.PolyExp {
		return a.shape.PolyExp < b.shape.PolyExp
	}
	return a.shape.LogExp < b.shape.LogExp
}

// cvRanker supplies, for one (points, values) dataset, the
// cross-validation function used to rank hypotheses on it. The oracle
// ranks with its direct-solve cross-validation through sparseHypotheses.
type cvRanker func(points []measurement.Point, values []float64) func(hypothesis) (float64, bool)

// topRanker ranks one parameter's single-shape hypotheses hs on the axis
// line (points, values) and returns the sparseTopShapes best in
// ratedLess order. The engine and the oracle plug in their own ranking
// so sparse hypothesis generation is shared between them.
type topRanker func(points []measurement.Point, values []float64, hs []hypothesis) []rated

// sparseHypotheses is sparseSearch with stage 1 ranked by a plain
// cross-validation function: every shape is scored, then sorted.
func sparseHypotheses(arity int, points []measurement.Point, values []float64, opts Options, ranker cvRanker) []hypothesis {
	return sparseSearch(arity, points, values, opts, func(pts []measurement.Point, vals []float64, hs []hypothesis) []rated {
		return rankByCV(ranker(pts, vals), hs)
	})
}

// rankByCV scores every single-shape hypothesis with cv and keeps the
// sparseTopShapes best in ratedLess order.
func rankByCV(cv func(hypothesis) (float64, bool), hs []hypothesis) []rated {
	var rs []rated
	for _, h := range hs {
		smape, ok := cv(h)
		if !ok {
			continue
		}
		rs = append(rs, rated{shape: h.terms[0].Factors[0], smape: smape})
	}
	sort.SliceStable(rs, func(i, j int) bool { return ratedLess(rs[i], rs[j]) })
	if len(rs) > sparseTopShapes {
		rs = rs[:sparseTopShapes]
	}
	return rs
}

// sparseSearch implements the two-stage multi-parameter search: rank
// every single-parameter shape by cross-validated SMAPE, then combine the
// top shapes of each parameter pair additively, multiplicatively, and in
// hybrid (term + cross-term) form.
func sparseSearch(arity int, points []measurement.Point, values []float64, opts Options, top topRanker) []hypothesis {
	shapes := shapeSet(opts)

	// Stage 1: evaluate single-parameter hypotheses.
	topPerParam := make([][]rated, arity)
	var out []hypothesis
	out = append(out, hypothesis{}) // constant
	for param := 0; param < arity; param++ {
		// Rank shapes on the axis-aligned line through the grid where all
		// other parameters sit at their minimum — on the full cross
		// product the other parameters' effect would drown the shape
		// signal of this one.
		linePts, lineVals := axisLine(points, values, param)
		if len(linePts) < 3 {
			linePts, lineVals = points, values
		}
		first := len(out)
		for _, s := range shapes {
			f := s
			f.Param = param
			out = append(out, hypothesis{terms: []pmnf.Term{{Factors: []pmnf.Factor{f}}}})
		}
		topPerParam[param] = top(linePts, lineVals, out[first:])
	}

	// Stage 2: combinations of the top shapes per parameter pair.
	for p1 := 0; p1 < arity; p1++ {
		for p2 := p1 + 1; p2 < arity; p2++ {
			for _, r1 := range topPerParam[p1] {
				for _, r2 := range topPerParam[p2] {
					f1, f2 := r1.shape, r2.shape
					out = append(out, hypothesis{terms: []pmnf.Term{
						{Factors: []pmnf.Factor{f1}},
						{Factors: []pmnf.Factor{f2}},
					}})
					out = append(out, hypothesis{terms: []pmnf.Term{
						{Factors: []pmnf.Factor{f1, f2}},
					}})
					out = append(out, hypothesis{terms: []pmnf.Term{
						{Factors: []pmnf.Factor{f1}},
						{Factors: []pmnf.Factor{f1, f2}},
					}})
					out = append(out, hypothesis{terms: []pmnf.Term{
						{Factors: []pmnf.Factor{f2}},
						{Factors: []pmnf.Factor{f1, f2}},
					}})
				}
			}
		}
	}
	return out
}

// axisLine extracts the subset of points (and their values) where every
// parameter except `param` is at its data minimum — the cheapest 1-D line
// through a measurement grid, used to rank single-parameter shapes.
func axisLine(points []measurement.Point, values []float64, param int) ([]measurement.Point, []float64) {
	arity := len(points[0])
	mins := make([]float64, arity)
	copy(mins, points[0])
	for _, p := range points {
		for i, v := range p {
			if v < mins[i] {
				mins[i] = v
			}
		}
	}
	var pts []measurement.Point
	var vals []float64
	for i, p := range points {
		onLine := true
		for j, v := range p {
			//edlint:ignore floateq sweep-line membership: the coordinate either is the stored minimum value or the point is off the line
			if j != param && v != mins[j] {
				onLine = false
				break
			}
		}
		if onLine {
			pts = append(pts, p)
			vals = append(vals, values[i])
		}
	}
	return pts, vals
}

// The hypothesis search space depends only on the exponent sets and the
// term budget, yet it used to be regenerated on every Fit call — once per
// kernel × metric, thousands of times per analysis run. The caches below
// memoize the expanded shapes and the single-parameter hypothesis list per
// (arity, Options) signature. Cached slices are shared across goroutines
// and must never be mutated by callers; the fitting code only reads them.
var (
	shapeCache      sync.Map // exponents key → []pmnf.Factor
	hypothesisCache sync.Map // arity/terms/exponents key → []hypothesis
)

// exponentsKey canonicalizes the exponent sets of the options into a cache
// key. Exponent order is preserved: a reordered set is a different (if
// equivalent) search space and simply caches separately.
func exponentsKey(opts Options) string {
	var b strings.Builder
	for _, e := range opts.PolyExponents {
		b.WriteString(strconv.FormatFloat(e, 'g', -1, 64))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, e := range opts.LogExponents {
		b.WriteString(strconv.Itoa(e))
		b.WriteByte(',')
	}
	return b.String()
}

// shapeSet expands the exponent sets into the factor shapes of the search
// space (excluding the constant), memoized per exponent signature. The
// returned slice is shared — callers must not modify it.
func shapeSet(opts Options) []pmnf.Factor {
	key := exponentsKey(opts)
	if v, ok := shapeCache.Load(key); ok {
		return v.([]pmnf.Factor)
	}
	shapes := make([]pmnf.Factor, 0, len(opts.PolyExponents)*len(opts.LogExponents))
	for _, i := range opts.PolyExponents {
		for _, j := range opts.LogExponents {
			if i == 0 && j == 0 {
				continue
			}
			shapes = append(shapes, pmnf.Factor{PolyExp: i, LogExp: j})
		}
	}
	shapeCache.Store(key, shapes)
	return shapes
}

// hypothesesCached returns the memoized single-parameter hypothesis space
// for the given arity and options. The returned slice is shared — callers
// must not modify it.
func hypothesesCached(arity int, opts Options) []hypothesis {
	key := strconv.Itoa(arity) + "#" + strconv.Itoa(opts.MaxTerms) + "#" + exponentsKey(opts)
	if v, ok := hypothesisCache.Load(key); ok {
		return v.([]hypothesis)
	}
	hyps := hypotheses(arity, opts)
	hypothesisCache.Store(key, hyps)
	return hyps
}

// hypothesis is a candidate model shape: the basis terms without
// coefficients. The constant basis is implicit.
type hypothesis struct {
	terms []pmnf.Term // coefficients ignored; factors define the basis
}

// hypotheses generates the single-parameter hypothesis search space: the
// constant, single terms x^i·log^j for (i,j) ∈ I×J\{(0,0)} and, when
// MaxTerms ≥ 2, all unordered pairs of distinct shapes. Multi-parameter
// search spaces are built adaptively by sparseHypotheses.
func hypotheses(arity int, opts Options) []hypothesis {
	shapes := shapeSet(opts)
	var out []hypothesis
	// The constant-only hypothesis is always a candidate.
	out = append(out, hypothesis{})
	_ = arity
	for _, s := range shapes {
		out = append(out, hypothesis{terms: []pmnf.Term{{Factors: []pmnf.Factor{s}}}})
	}
	if opts.MaxTerms >= 2 {
		for a := 0; a < len(shapes); a++ {
			for b := a + 1; b < len(shapes); b++ {
				out = append(out, hypothesis{terms: []pmnf.Term{
					{Factors: []pmnf.Factor{shapes[a]}},
					{Factors: []pmnf.Factor{shapes[b]}},
				}})
			}
		}
	}
	return out
}

// validateFitInputs runs the shared precondition checks of every fit
// entry point; opts must already be normalized.
func validateFitInputs(points []measurement.Point, values []float64, opts Options) error {
	if len(points) != len(values) {
		return fmt.Errorf("%w: %d points but %d values", ErrMismatchedLengths, len(points), len(values))
	}
	if len(points) < opts.MinPoints {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewPoints, len(points), opts.MinPoints)
	}
	arity := len(points[0])
	for _, p := range points {
		if len(p) != arity {
			return fmt.Errorf("modeling: mixed point arity %d vs %d", len(p), arity)
		}
	}
	if arity == 0 {
		return errors.New("modeling: zero-arity points")
	}
	for _, p := range points {
		for _, v := range p {
			if v <= 0 {
				return fmt.Errorf("modeling: parameter value %v outside PMNF domain (must be > 0)", v)
			}
		}
	}
	return nil
}
