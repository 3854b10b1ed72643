package modeling

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/pmnf"
)

// This file is the design-matrix engine: the fast fit path that the
// whole hypothesis search runs on. A fitContext is built once per
// (points, values, Options) task. It evaluates every basis factor once
// per configuration into cached columns (pmnf.ColumnSet) and assembles
// each hypothesis's normal equations — full-data and per
// leave-one-out fold — directly from those columns, replaying the exact
// floating-point operation order of the reference direct-solve path
// (oracle.go). Replaying rather than algebraically updating keeps model
// selection bit-identical to the oracle: same accepted hypothesis set,
// same CV-SMAPE bits, same winning hypothesis, same coefficients. What
// the engine removes is all redundant work — the repeated math.Pow/log
// basis evaluations (once per hypothesis per fold before; once per task
// now) and every per-fold design-matrix and solver allocation.

// errUnderDetermined mirrors the oracle's rejection of folds with fewer
// rows than coefficients.
var errUnderDetermined = errors.New("modeling: under-determined fold")

// errNonFiniteBasis mirrors the oracle's rejection of hypotheses whose
// basis is undefined (NaN/Inf) at a measurement point.
var errNonFiniteBasis = errors.New("modeling: basis function undefined at a measurement point")

// errNegativeCoefficient mirrors the oracle's NonNegativeCoefficients
// rejection.
var errNegativeCoefficient = errors.New("modeling: negative term coefficient rejected")

// fitContext is the per-task state of the design-matrix engine. It is
// confined to one goroutine: the column cache fills lazily and every
// scratch buffer is reused across the hypothesis space.
type fitContext struct {
	points []measurement.Point
	values []float64
	opts   Options
	cols   *pmnf.ColumnSet

	// Scratch reused across hypotheses and folds. termCols holds the
	// current hypothesis's basis columns and facCols the per-term factor
	// column references they were assembled from (for the fold-prediction
	// replay); nonFinite the rows where any term column is NaN/Inf;
	// xtx/xty the accumulated normal equations; ws the solver workspace;
	// preds/acts the fold predictions; fullPreds the full-data predictions
	// of a candidate. prepared/lastTerms memoize
	// the most recently prepared hypothesis: selectBest cross-validates
	// and then refits the same hypothesis back to back, and the second
	// prepare would redo identical work.
	termCols  [][]float64
	facCols   [][][]float64
	prepared  bool
	lastTerms []pmnf.Term
	nonFinite []int
	xtx       [][]float64
	xty       []float64
	xrow      []float64
	ws        mathutil.SolveWorkspace
	preds     []float64
	acts      []float64
	fullPreds []float64
}

// The fit tasks of one campaign overwhelmingly share their measurement
// points (one task per kernel × metric over the same configurations), so
// the basis columns — which depend only on the points and the exponent
// sets — are shared process-wide: the first task for a (points, shapes)
// signature evaluates every shape column eagerly into an immutable map,
// later tasks seed their ColumnSet with it read-only. Values are pure
// functions of the key, so a racing double-compute stores bit-identical
// columns and determinism is unaffected. The cache is capped; beyond the
// cap tasks simply fall back to private lazy columns.
var (
	basisCache sync.Map // basisSig → *basisEntry
	basisCount atomic.Int32
)

const basisCacheCap = 256

// basisSig is the shared-basis cache key: a two-lane FNV-1a content
// hash over the row bits and exponent signature, plus the row/arity
// counts. It replaced a canonical-string key that built a multi-kilobyte
// string per fit task — the single largest allocation on the fit path
// (allocloop's first repo finding). The hash itself is not trusted for
// equality: lookups verify the stored content byte-for-byte (see
// basisEntry.matches), so even a 128-bit collision cannot cross-seed
// columns between tasks — it only degrades the task to private columns.
type basisSig struct {
	h1, h2   uint64
	n, arity int
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// basisSignature hashes the row contents and the exponent sets into a
// basisSig, allocation-free.
func basisSignature(rows [][]float64, opts Options) basisSig {
	h1 := uint64(fnvOffset64)
	h2 := uint64(fnvOffset64) ^ 0x9e3779b97f4a7c15
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			b := uint64(byte(v >> s))
			h1 = (h1 ^ b) * fnvPrime64
			h2 = (h2 ^ b) * fnvPrime64
		}
	}
	for _, row := range rows {
		for _, v := range row {
			mix(math.Float64bits(v))
		}
		mix(uint64(len(row)))
	}
	for _, e := range opts.PolyExponents {
		mix(math.Float64bits(e))
	}
	mix(uint64(len(opts.PolyExponents)))
	for _, e := range opts.LogExponents {
		mix(uint64(e))
	}
	arity := 0
	if len(rows) > 0 {
		arity = len(rows[0])
	}
	return basisSig{h1: h1, h2: h2, n: len(rows), arity: arity}
}

// basisEntry pairs the published factor columns with a verbatim copy of
// the keyed content, so lookups verify real equality instead of trusting
// the hash.
type basisEntry struct {
	flat []float64 // row-major copy of the keyed rows
	lens []int     // per-row arity (points are uniform, but verify anyway)
	poly []float64
	logE []int
	cols map[pmnf.Factor][]float64
}

// matches reports whether the entry was keyed by exactly these rows and
// exponent sets, comparing float content bit for bit.
func (e *basisEntry) matches(rows [][]float64, opts Options) bool {
	if len(e.lens) != len(rows) || len(e.poly) != len(opts.PolyExponents) || len(e.logE) != len(opts.LogExponents) {
		return false
	}
	k := 0
	for i, row := range rows {
		if e.lens[i] != len(row) {
			return false
		}
		for _, v := range row {
			if math.Float64bits(e.flat[k]) != math.Float64bits(v) {
				return false
			}
			k++
		}
	}
	for i, v := range opts.PolyExponents {
		if math.Float64bits(e.poly[i]) != math.Float64bits(v) {
			return false
		}
	}
	for i, v := range opts.LogExponents {
		if e.logE[i] != v {
			return false
		}
	}
	return true
}

// newBasisEntry copies the keyed content (a one-time cost per cache
// entry, bounded by basisCacheCap) alongside the computed columns.
func newBasisEntry(rows [][]float64, opts Options, cols map[pmnf.Factor][]float64) *basisEntry {
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	e := &basisEntry{
		flat: make([]float64, 0, total),
		lens: make([]int, len(rows)),
		poly: append([]float64(nil), opts.PolyExponents...),
		logE: append([]int(nil), opts.LogExponents...),
		cols: cols,
	}
	for i, row := range rows {
		e.lens[i] = len(row)
		e.flat = append(e.flat, row...)
	}
	return e
}

// sharedBasis returns the immutable shared factor columns for the given
// rows and options, computing and publishing them on first use. It
// returns nil when the cache is full or on the (astronomically unlikely)
// hash collision, in which case the task falls back to private lazy
// columns — a pure slowdown, never a correctness change, since columns
// are pure functions of the rows.
func sharedBasis(rows [][]float64, opts Options) map[pmnf.Factor][]float64 {
	sig := basisSignature(rows, opts)
	if v, ok := basisCache.Load(sig); ok {
		e := v.(*basisEntry)
		if e.matches(rows, opts) {
			return e.cols
		}
		return nil
	}
	if basisCount.Load() >= basisCacheCap {
		return nil
	}
	cs := pmnf.NewColumnSet(rows)
	arity := len(rows[0])
	shared := make(map[pmnf.Factor][]float64)
	for _, s := range shapeSet(opts) {
		for p := 0; p < arity; p++ {
			f := s
			f.Param = p
			shared[f] = cs.FactorColumn(f)
		}
	}
	if _, loaded := basisCache.LoadOrStore(sig, newBasisEntry(rows, opts, shared)); !loaded {
		basisCount.Add(1)
	}
	return shared
}

// newFitContext builds the engine state for one fit task. opts must
// already be normalized and (points, values) validated.
func newFitContext(points []measurement.Point, values []float64, opts Options) *fitContext {
	rows := make([][]float64, len(points))
	for i, p := range points {
		rows[i] = p
	}
	return &fitContext{
		points: points,
		values: values,
		opts:   opts,
		cols:   pmnf.NewColumnSetShared(rows, sharedBasis(rows, opts)),
	}
}

// prepare caches the basis columns of h's terms — and the factor columns
// they are built from — and records the rows at which any term column is
// non-finite. A repeated call for the hypothesis just prepared is a no-op:
// selectBest cross-validates and then refits the same hypothesis, and the
// memo spares the second column assembly.
func (fc *fitContext) prepare(h hypothesis) {
	k := len(h.terms)
	if fc.prepared && k == len(fc.lastTerms) && (k == 0 || &h.terms[0] == &fc.lastTerms[0]) {
		return
	}
	fc.prepared = true
	fc.lastTerms = h.terms
	for len(fc.termCols) < k {
		fc.termCols = append(fc.termCols, nil)
	}
	for len(fc.facCols) < k {
		fc.facCols = append(fc.facCols, nil)
	}
	fc.nonFinite = fc.nonFinite[:0]
	for c, t := range h.terms {
		facs := fc.facCols[c][:0]
		for _, f := range t.Factors {
			facs = append(facs, fc.cols.FactorColumn(f))
		}
		fc.facCols[c] = facs
		fc.termCols[c] = pmnf.TermProduct(len(fc.points), facs, fc.termCols[c])
	}
	for r := 0; r < len(fc.points); r++ {
		for c := 0; c < k; c++ {
			if v := fc.termCols[c][r]; math.IsNaN(v) || math.IsInf(v, 0) {
				fc.nonFinite = append(fc.nonFinite, r)
				break
			}
		}
	}
}

// foldClean reports whether the design matrix of the fold leaving out row
// `leave` is fully finite — the oracle checks exactly the rows the fold
// fits on, so a single bad row poisons every fold except its own.
func (fc *fitContext) foldClean(leave int) bool {
	switch len(fc.nonFinite) {
	case 0:
		return true
	case 1:
		return fc.nonFinite[0] == leave
	default:
		return false
	}
}

// solveFold accumulates the normal equations XᵀX·c = Xᵀy over every row
// except `leave` (pass leave < 0 for the full-data fit) and solves them.
// The accumulation replays mathutil.LeastSquares's operand order over the
// cached columns — row-major, upper triangle, constant column first — so
// the solution is bit-identical to building the design matrix and solving
// directly. The returned slice aliases solver scratch; callers use it
// before the next solve.
func (fc *fitContext) solveFold(nTerms, leave int) ([]float64, error) {
	cols := nTerms + 1
	rows := len(fc.points)
	if leave >= 0 {
		rows--
	}
	if rows < cols {
		return nil, errUnderDetermined
	}
	for len(fc.xtx) < cols {
		fc.xtx = append(fc.xtx, nil)
	}
	for i := 0; i < cols; i++ {
		for len(fc.xtx[i]) < cols {
			fc.xtx[i] = append(fc.xtx[i], 0)
		}
	}
	for len(fc.xty) < cols {
		fc.xty = append(fc.xty, 0)
	}
	for i := 0; i < cols; i++ {
		fc.xty[i] = 0
		for j := 0; j < cols; j++ {
			fc.xtx[i][j] = 0
		}
	}
	for len(fc.xrow) < cols {
		fc.xrow = append(fc.xrow, 0)
	}
	xrow := fc.xrow[:cols]
	for r := 0; r < len(fc.points); r++ {
		if r == leave {
			continue
		}
		y := fc.values[r]
		xrow[0] = 1.0
		for i := 1; i < cols; i++ {
			xrow[i] = fc.termCols[i-1][r]
		}
		for i := 0; i < cols; i++ {
			xi := xrow[i]
			fc.xty[i] += xi * y
			row := fc.xtx[i]
			for j := i; j < cols; j++ {
				row[j] += xi * xrow[j]
			}
		}
	}
	for i := 0; i < cols; i++ {
		for j := 0; j < i; j++ {
			fc.xtx[i][j] = fc.xtx[j][i]
		}
	}
	return mathutil.SolveLinearSystemInto(fc.xtx[:cols], fc.xty[:cols], &fc.ws)
}

// checkSigns applies the NonNegativeCoefficients rejection to a solved
// coefficient vector, in the oracle's term order.
func (fc *fitContext) checkSigns(coefs []float64) error {
	if !fc.opts.NonNegativeCoefficients {
		return nil
	}
	for _, c := range coefs[1:] {
		if c < 0 {
			return errNegativeCoefficient
		}
	}
	return nil
}

// predictRow evaluates the model (coefs over the prepared hypothesis's
// terms) at row r, replaying pmnf.Function.Eval's operand order — the
// coefficient first, then each factor in term order — from the factor
// columns prepare stashed.
func (fc *fitContext) predictRow(h hypothesis, coefs []float64, r int) float64 {
	pred := coefs[0]
	for ti := range h.terms {
		tv := coefs[ti+1]
		for _, col := range fc.facCols[ti] {
			tv *= col[r]
		}
		pred += tv
	}
	return pred
}

// fitHypothesis fits h's coefficients on the full task data and returns
// the resulting function — bit-identical to the oracle's direct solve —
// or an error when the regression is degenerate.
func (fc *fitContext) fitHypothesis(h hypothesis) (*pmnf.Function, error) {
	fc.prepare(h)
	if len(fc.nonFinite) > 0 {
		return nil, errNonFiniteBasis
	}
	coefs, err := fc.solveFold(len(h.terms), -1)
	if err != nil {
		return nil, err
	}
	fn := &pmnf.Function{Constant: coefs[0], Terms: make([]pmnf.Term, 0, len(h.terms))}
	for i, term := range h.terms {
		c := coefs[i+1]
		if fc.opts.NonNegativeCoefficients && c < 0 {
			return nil, errNegativeCoefficient
		}
		fn.Terms = append(fn.Terms, pmnf.Term{Coefficient: c, Factors: term.Factors})
	}
	return fn, nil
}

// crossValidate computes the leave-one-out CV-SMAPE of hypothesis h.
// Every fold's solve is replayed from the cached columns, preserving the
// oracle's per-fold singularity and coefficient-sign rejections bit for
// bit.
func (fc *fitContext) crossValidate(h hypothesis) (float64, bool) {
	fc.prepare(h)
	n := len(fc.points)
	fc.preds = fc.preds[:0]
	fc.acts = fc.acts[:0]
	for leave := 0; leave < n; leave++ {
		if !fc.foldClean(leave) {
			return 0, false
		}
		coefs, err := fc.solveFold(len(h.terms), leave)
		if err != nil {
			return 0, false
		}
		if fc.checkSigns(coefs) != nil {
			return 0, false
		}
		fc.preds = append(fc.preds, fc.predictRow(h, coefs, leave))
		fc.acts = append(fc.acts, fc.values[leave])
	}
	return mathutil.SMAPE(fc.preds, fc.acts)
}

// ranker supplies the stage-1 cross-validation function of the sparse
// multi-parameter search: hypotheses rank on the axis line through the
// grid, so a sub-context with its own column cache is built for the line
// subset (the full context is reused when the search fell back to the
// complete point set).
func (fc *fitContext) ranker(points []measurement.Point, values []float64) func(hypothesis) (float64, bool) {
	if len(points) == len(fc.points) && len(points) > 0 && &points[0] == &fc.points[0] {
		return fc.crossValidate
	}
	return newFitContext(points, values, fc.opts).crossValidate
}

// selectBest evaluates all hypotheses on the engine and returns the
// fitted model with the smallest cross-validated SMAPE (ties broken by
// fewer terms, then lower RSS), followed by the Occam preference among
// statistically indistinguishable candidates. The logic — and, through
// the replayed solves, every selection-relevant bit — matches the
// oracle's selectBestDirect.
func (fc *fitContext) selectBest(hyps []hypothesis) (*Model, error) {
	type candidate struct {
		fn    *pmnf.Function
		smape float64
		rss   float64
		terms int
	}
	n := len(fc.points)
	for len(fc.fullPreds) < n {
		fc.fullPreds = append(fc.fullPreds, 0)
	}
	cands := make([]candidate, 0, len(hyps))
	for _, h := range hyps {
		smape, ok := fc.crossValidate(h)
		if !ok {
			continue
		}
		fn, err := fc.fitHypothesis(h)
		if err != nil {
			continue
		}
		for i := 0; i < n; i++ {
			fc.fullPreds[i] = fc.cols.EvalFunction(fn, i)
		}
		rss, _ := mathutil.RSS(fc.fullPreds[:n], fc.values)
		cands = append(cands, candidate{fn: fn, smape: smape, rss: rss, terms: len(fn.Terms)})
	}
	if len(cands) == 0 {
		return nil, ErrNoHypothesis
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].smape < cands[j].smape {
			return true
		}
		if cands[i].smape > cands[j].smape {
			return false
		}
		if cands[i].terms != cands[j].terms {
			return cands[i].terms < cands[j].terms
		}
		return cands[i].rss < cands[j].rss
	})
	// Occam selection: hypotheses whose cross-validated SMAPE is within
	// the noise-level tolerance of the minimum are statistically
	// indistinguishable on the modeling points; among them the
	// slowest-growing one is preferred — a steep exponent that fits the
	// noise a hair better would explode under extrapolation, exactly the
	// failure mode empirical modeling must avoid. Two guard rails:
	// the pure constant may win only by having the smallest SMAPE
	// outright (flattening real growth through the tie-break would erase
	// the scaling signal the tool exists to find), and on noise-free data
	// the tolerance collapses to (nearly) zero so the best-fitting shape
	// wins unchanged.
	threshold := cands[0].smape + math.Max(0.05, 0.5*cands[0].smape)
	best := cands[0]
	for _, c := range cands[1:] {
		if c.smape > threshold {
			break // sorted by smape: all following are worse
		}
		if len(c.fn.Terms) == 0 {
			continue // never flatten to the constant via the tie-break
		}
		gc, gb := c.fn.Growth(), best.fn.Growth()
		if cmp := gc.Compare(gb); cmp < 0 || (cmp == 0 && c.terms < best.terms) {
			best = c
		}
	}

	preds := make([]float64, n)
	for i := 0; i < n; i++ {
		preds[i] = fc.cols.EvalFunction(best.fn, i)
	}
	r2, okR2 := mathutil.RSquared(preds, fc.values)
	if !okR2 {
		r2 = math.NaN()
	}
	// Relative residual spread for prediction intervals.
	rel := make([]float64, 0, len(preds))
	for i := range preds {
		if fc.values[i] != 0 {
			rel = append(rel, (preds[i]-fc.values[i])/fc.values[i])
		}
	}
	relStd, _ := mathutil.StdDev(rel)

	model := &Model{
		Function:       best.fn,
		SMAPE:          best.smape,
		RSS:            best.rss,
		R2:             r2,
		RelResidualStd: relStd,
		Points:         fc.points,
		Actual:         append([]float64(nil), fc.values...),
	}
	return model, nil
}

// Fitter is the exported handle on the design-matrix engine: the fit
// stage constructs one per fit task (validating the inputs up front) and
// runs the whole hypothesis search on it. A Fitter is single-use state
// bound to one goroutine; concurrent tasks each build their own.
type Fitter struct {
	fc *fitContext
}

// NewFitter validates one fit task's inputs and binds the design-matrix
// engine to them. The validation rules and errors are exactly Fit's.
func NewFitter(points []measurement.Point, values []float64, opts Options) (*Fitter, error) {
	opts = normalizeOptions(opts)
	if err := validateFitInputs(points, values, opts); err != nil {
		return nil, err
	}
	return &Fitter{fc: newFitContext(points, values, opts)}, nil
}

// NewSeriesFitter aggregates the series (median by default, mean with
// Options.UseMean) and binds the engine to the aggregated values.
func NewSeriesFitter(s *measurement.Series, opts Options) (*Fitter, error) {
	if s == nil {
		return nil, errors.New("modeling: nil series")
	}
	sorted := *s
	sorted.Sort()
	points := sorted.Points()
	values := make([]float64, len(points))
	for i, sm := range sorted.Samples {
		var v float64
		var ok bool
		if opts.UseMean {
			v, ok = sm.Mean()
		} else {
			v, ok = sm.Median()
		}
		if !ok {
			return nil, fmt.Errorf("modeling: sample at %s has no repetitions", sm.Point.Key())
		}
		values[i] = v
	}
	return NewFitter(points, values, opts)
}

// Fit runs the hypothesis search and model selection for the bound task.
// With the oracle flag set (EDFIT_ORACLE) the search runs on the
// reference direct-solve path instead; selection is bit-identical either
// way.
func (f *Fitter) Fit() (*Model, error) {
	fc := f.fc
	if forceOracle {
		return fitOracle(fc.points, fc.values, fc.opts)
	}
	arity := len(fc.points[0])
	var hyps []hypothesis
	if arity == 1 {
		hyps = hypothesesCached(arity, fc.opts)
	} else {
		// Multi-parameter sparse modeling: a full cross product of shape
		// combinations is quadratic in the (large) shape set and makes
		// model search orders of magnitude slower. Following Extra-P's
		// sparse-modeling approach, first evaluate single-parameter
		// hypotheses, then build combinations only from the best few
		// shapes per parameter.
		hyps = sparseHypotheses(arity, fc.points, fc.values, fc.opts, fc.ranker)
	}
	if len(hyps) == 0 {
		return nil, ErrNoHypothesis
	}
	return fc.selectBest(hyps)
}
