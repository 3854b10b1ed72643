// Package modeling implements Extra-Deep's automated empirical model
// creation (Section 2.3 of the paper): it instantiates the Performance
// Model Normal Form with exponents drawn from configurable sets I and J,
// fits the coefficients of every hypothesis by linear regression, and
// selects the hypothesis with the smallest cross-validated symmetric mean
// absolute percentage error (SMAPE).
//
// Fitting runs on a per-task fitContext (see fitcontext.go) that reads
// its basis columns and search space from the one fit cache (built once
// per point set and exponent sets, see basisEntry), ranks each
// hypothesis's leave-one-out folds from one full-data factorization
// (PRESS), and replays the oracle's fold-by-fold solves exactly wherever
// selection is decided — bit-identical to the reference direct-solve
// oracle (oracle.go), which survives behind the EDFIT_ORACLE flag for
// verification.
package modeling

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
// measurement.MinModelingPoints.
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
// With the oracle flag set (EDFIT_ORACLE) the search runs on the
// reference direct-solve path instead; selection is bit-identical either
// way.
func Fit(points []measurement.Point, values []float64, opts Options) (*Model, error) {
	opts = normalizeOptions(opts)
	if err := validateFitInputs(points, values, opts); err != nil {
		return nil, err
	}
	if forceOracle {
		return fitOracle(points, values, opts)
	}
	return fitValidated(points, values, opts)
}

// FitSeries aggregates each sample of the series (median by default, mean
// with Options.UseMean) and fits a model on the aggregated values.
func FitSeries(s *measurement.Series, opts Options) (*Model, error) {
	points, values, err := aggregateSeries(s, opts.UseMean)
	if err != nil {
		return nil, err
	}
	return Fit(points, values, opts)
}

// aggregateSeries returns the series' points in sorted order with each
// sample's median (or mean) repetition value. The series itself is left
// as it is: samples already in point order (as the epoch stage builds
// them) are read in place, others through a sorted copy.
func aggregateSeries(s *measurement.Series, useMean bool) ([]measurement.Point, []float64, error) {
	if s == nil {
		return nil, nil, errors.New("modeling: nil series")
	}
	sorted := *s
	if !samplesSorted(sorted.Samples) {
		sorted.Samples = slices.Clone(sorted.Samples)
		sorted.Sort()
	}
	points := sorted.Points()
	values := make([]float64, len(points))
	// Medians sort a copy of each sample's repetitions in one scratch
	// slice, never the caller's Reps.
	var scratch []float64
	for i, sm := range sorted.Samples {
		var v float64
		var ok bool
		if useMean {
			v, ok = sm.Mean()
		} else {
			scratch = append(scratch[:0], sm.Reps...)
			v, ok = mathutil.MedianInPlace(scratch)
		}
		if !ok {
			return nil, nil, fmt.Errorf("modeling: sample at %s has no repetitions", sm.Point.Key())
		}
		values[i] = v
	}
	return points, values, nil
}

// samplesSorted reports whether the samples are in the order
// measurement.Series.Sort puts them in.
func samplesSorted(samples []measurement.Sample) bool {
	for i := 1; i < len(samples); i++ {
		if samples[i].Point.Less(samples[i-1].Point) {
			return false
		}
	}
	return true
}

// sparseTopShapes is the number of best single-parameter shapes per
// parameter that enter the combination stage of sparse modeling.
const sparseTopShapes = 4

// rated is one stage-1 ranking entry of the sparse search: a
// single-parameter shape, its fit-cache column (see basisCol) and its
// cross-validated SMAPE on the axis line.
type rated struct {
	shape pmnf.Factor
	col   int32
	smape float64
}

// ratedLess orders stage-1 rankings: primarily by CV-SMAPE, with SMAPE
// ties broken by shape identity (polynomial exponent, then log exponent).
// The secondary key makes the former insertion-order tie-break explicit:
// the top shapes of a tied rank no longer depend on the order the
// exponent sets happened to enumerate in.
func ratedLess(a, b rated) bool {
	if a.smape != b.smape {
		return a.smape < b.smape
	}
	if a.shape.PolyExp != b.shape.PolyExp {
		return a.shape.PolyExp < b.shape.PolyExp
	}
	return a.shape.LogExp < b.shape.LogExp
}

// topRanker ranks parameter param's single-shape hypotheses hs on the
// parameter's axis line (see axisLine; the complete point set when fewer
// than minLinePoints lie on it) and returns the sparseTopShapes best in
// ratedLess order. The engine and the oracle plug in their own ranking
// so sparse hypothesis generation is shared between them.
type topRanker func(param int, hs []hypothesis) []rated

// minLinePoints is the fewest axis-line points a stage-1 ranking runs
// on; below it the ranking uses the complete point set.
const minLinePoints = 3

// basisCol is one factor of the search space: a shape at a parameter
// and the index of its column among the fit-cache entry's cols, shape s
// of the expanded exponent sets at parameter p being column
// p·len(shapes)+s. Hypotheses carry the indices so the engine reads
// their columns without hashing factors.
type basisCol struct {
	f   pmnf.Factor
	idx int32
}

// shapeCol returns shape s of shapes at parameter p as a basisCol.
func shapeCol(shapes []pmnf.Factor, p, s int) basisCol {
	f := shapes[s]
	f.Param = p
	return basisCol{f: f, idx: int32(p*len(shapes) + s)}
}

// hypothesisSpace is the storage a generated hypothesis list is cut
// from: the hypotheses themselves and one slab each for their terms,
// factors and factor columns (parallel to the factors). A fit task's
// space lives in its pooled fitScratch, so the sparse search allocates
// nothing per hypothesis once the slabs have grown; the next task
// overwrites it, which is why nothing a fit returns may alias it.
type hypothesisSpace struct {
	hyps    []hypothesis
	terms   []pmnf.Term
	factors []pmnf.Factor
	cols    []int32
	mark    int // start in cols of the hypothesis being cut
}

// reset empties the space and sizes it for up to nHyps hypotheses with
// nTerms terms and nFactors factors in all. Reserving the whole space up
// front keeps every hypothesis in one backing array per slab.
func (sp *hypothesisSpace) reset(nHyps, nTerms, nFactors int) {
	if cap(sp.hyps) < nHyps {
		sp.hyps = make([]hypothesis, 0, nHyps)
	}
	if cap(sp.terms) < nTerms {
		sp.terms = make([]pmnf.Term, 0, nTerms)
	}
	if cap(sp.factors) < nFactors {
		sp.factors = make([]pmnf.Factor, 0, nFactors)
	}
	if cap(sp.cols) < nFactors {
		sp.cols = make([]int32, 0, nFactors)
	}
	sp.hyps, sp.terms, sp.factors, sp.cols, sp.mark = sp.hyps[:0], sp.terms[:0], sp.factors[:0], sp.cols[:0], 0
}

// term cuts a term with the factors cs from the factor and column slabs.
func (sp *hypothesisSpace) term(cs ...basisCol) pmnf.Term {
	start := len(sp.factors)
	end := start + len(cs)
	sp.factors = slices.Grow(sp.factors, len(cs))[:end]
	sp.cols = slices.Grow(sp.cols, len(cs))[:end]
	for i, c := range cs {
		sp.factors[start+i], sp.cols[start+i] = c.f, c.idx
	}
	return pmnf.Term{Factors: sp.factors[start:end:end]}
}

// add appends the hypothesis with the terms ts, cut from the term slab;
// its columns are those of the terms cut since the previous add.
func (sp *hypothesisSpace) add(ts ...pmnf.Term) {
	start := len(sp.terms)
	sp.terms = append(sp.terms, ts...)
	end := len(sp.terms)
	cols := sp.cols[sp.mark:len(sp.cols):len(sp.cols)]
	sp.mark = len(sp.cols)
	sp.hyps = append(sp.hyps, hypothesis{terms: sp.terms[start:end:end], cols: cols})
}

// sparseSearch implements the two-stage multi-parameter search: rank
// every single-parameter shape by cross-validated SMAPE, then combine the
// top shapes of each parameter pair additively, multiplicatively, and in
// hybrid (term + cross-term) form, over the expanded exponent sets
// shapes. The hypotheses are built into sp, or into fresh storage when sp
// is nil; the returned list aliases it.
func sparseSearch(arity int, shapes []pmnf.Factor, top topRanker, sp *hypothesisSpace) []hypothesis {
	if sp == nil {
		sp = new(hypothesisSpace)
	}
	// Stage 1 adds one single-factor hypothesis per (parameter, shape);
	// stage 2 at most sparseTopShapes² combinations per parameter pair,
	// each four hypotheses of 7 terms and 10 factors together.
	singles := arity * len(shapes)
	combos := arity * (arity - 1) / 2 * sparseTopShapes * sparseTopShapes
	sp.reset(1+singles+4*combos, singles+7*combos, singles+10*combos)

	// Stage 1: evaluate single-parameter hypotheses.
	topPerParam := make([][]rated, arity)
	sp.hyps = append(sp.hyps, hypothesis{}) // constant
	for param := 0; param < arity; param++ {
		// Rank shapes on the axis-aligned line through the grid where all
		// other parameters sit at their minimum — on the full cross
		// product the other parameters' effect would drown the shape
		// signal of this one.
		first := len(sp.hyps)
		for s := range shapes {
			sp.add(sp.term(shapeCol(shapes, param, s)))
		}
		topPerParam[param] = top(param, sp.hyps[first:])
	}

	// Stage 2: combinations of the top shapes per parameter pair.
	for p1 := 0; p1 < arity; p1++ {
		for p2 := p1 + 1; p2 < arity; p2++ {
			for _, r1 := range topPerParam[p1] {
				for _, r2 := range topPerParam[p2] {
					f1, f2 := basisCol{r1.shape, r1.col}, basisCol{r2.shape, r2.col}
					sp.add(sp.term(f1), sp.term(f2))
					sp.add(sp.term(f1, f2))
					sp.add(sp.term(f1), sp.term(f1, f2))
					sp.add(sp.term(f2), sp.term(f1, f2))
				}
			}
		}
	}
	return sp.hyps
}

// axisRows returns the indices of the points where every parameter
// except `param` is at its data minimum — the cheapest 1-D line through a
// measurement grid, used to rank single-parameter shapes.
func axisRows(points []measurement.Point, param int) []int {
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
	var rows []int
	for i, p := range points {
		onLine := true
		for j, v := range p {
			if j != param && v != mins[j] {
				onLine = false
				break
			}
		}
		if onLine {
			rows = append(rows, i)
		}
	}
	return rows
}

// axisLine extracts the points on param's axis line (see axisRows) and
// their values.
func axisLine(points []measurement.Point, values []float64, param int) ([]measurement.Point, []float64) {
	rows := axisRows(points, param)
	pts := make([]measurement.Point, len(rows))
	vals := make([]float64, len(rows))
	for i, r := range rows {
		pts[i], vals[i] = points[r], values[r]
	}
	return pts, vals
}

// buildShapes expands the exponent sets into the factor shapes of the
// search space (excluding the constant), in a new slice.
func buildShapes(opts Options) []pmnf.Factor {
	shapes := make([]pmnf.Factor, 0, len(opts.PolyExponents)*len(opts.LogExponents))
	for _, i := range opts.PolyExponents {
		for _, j := range opts.LogExponents {
			if i == 0 && j == 0 {
				continue
			}
			shapes = append(shapes, pmnf.Factor{PolyExp: i, LogExp: j})
		}
	}
	return shapes
}

// hypothesis is a candidate model shape: the basis terms without
// coefficients, and the fit-cache column of every factor. The constant
// basis is implicit.
type hypothesis struct {
	terms []pmnf.Term // coefficients ignored; factors define the basis
	cols  []int32     // basisCol.idx of every factor, in term and factor order
}

// hypotheses generates the single-parameter hypothesis search space, in
// new storage: the constant, single terms x^i·log^j for
// (i,j) ∈ I×J\{(0,0)} and, when MaxTerms ≥ 2, all unordered pairs of
// distinct shapes. Multi-parameter search spaces are built adaptively by
// sparseSearch.
func hypotheses(opts Options) []hypothesis {
	shapes := buildShapes(opts)
	ns, pairs := len(shapes), 0
	if opts.MaxTerms >= 2 {
		pairs = ns * (ns - 1) / 2
	}
	var sp hypothesisSpace
	sp.reset(1+ns+pairs, ns+2*pairs, ns+2*pairs)
	// The constant-only hypothesis is always a candidate.
	sp.hyps = append(sp.hyps, hypothesis{})
	for s := range shapes {
		sp.add(sp.term(shapeCol(shapes, 0, s)))
	}
	if opts.MaxTerms >= 2 {
		for a := 0; a < ns; a++ {
			for b := a + 1; b < ns; b++ {
				sp.add(sp.term(shapeCol(shapes, 0, a)), sp.term(shapeCol(shapes, 0, b)))
			}
		}
	}
	return sp.hyps
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
