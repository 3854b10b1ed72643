package modeling

import (
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/pmnf"
)

// This file is the design-matrix engine: the fast fit path that the
// whole hypothesis search runs on. A fitContext is built once per
// (points, values, Options) task. It reads every basis factor's column
// from the task's fit-cache entry (evaluated once per configuration per
// process, see basisEntry) and assembles each hypothesis's full-data
// normal equations directly from those columns, in the exact
// floating-point operation order of the reference direct-solve path
// (oracle.go), so full-data coefficients, RSS and growth are
// bit-identical to the oracle's.
//
// Leave-one-out cross-validation is ranked fast and replayed exactly only
// where model selection is decided. Every fold comes from the one
// full-data factorization through the PRESS identity
// c₍₋ᵢ₎ = c − (XᵀX)⁻¹xᵢ·eᵢ/(1−hᵢᵢ), O(n·c²) per hypothesis instead of
// the O(n²·c²) of re-accumulating XᵀX per fold. A scaled condition
// estimate from the same factorization bounds how far each fast fold
// prediction, and so the fast CV-SMAPE, can sit from the value the
// oracle's per-fold solve would produce. A hypothesis is replayed fold
// by fold (crossValidate, the oracle's operation order) when a fold is
// near the solver's singular cut or a coefficient near the sign
// rejection, when the bound is useless, when its CV-SMAPE interval
// straddles a selection decision (the stage-1 cut and order, the
// minimum, the Occam threshold, the winner's tie group), and always when
// it wins: the reported SMAPE is the replayed one. Selection is
// therefore bit-identical to the oracle.

// errUnderDetermined mirrors the oracle's rejection of folds with fewer
// rows than coefficients.
var errUnderDetermined = errors.New("modeling: under-determined fold")

// fitContext is the per-task state of the design-matrix engine. It is
// confined to one goroutine: every scratch buffer is reused across the
// hypothesis space, and the shared fit-cache entry is only read.
type fitContext struct {
	points []measurement.Point
	values []float64
	opts   Options
	basis  *basisEntry // shared, read-only

	ynorm float64 // ‖values‖₂, a scale of the PRESS error bound

	// fullPreds holds the full-data predictions of the scored hypothesis
	// and ones the constant design column, both this context's rows of
	// the shared scratch.
	fullPreds, ones []float64

	*fitScratch

	// scored and replayed count hypotheses scored and replayed exactly;
	// flush moves them into the process-wide guard counters.
	scored, replayed int
}

// fitScratch is the scratch of one fit task, reused across hypotheses
// and folds and shared by the task's contexts: the stage-1 axis-line
// contexts run to completion before the task's own context starts.
// Between tasks it rests in scratchPool.
// termCols holds the prepared hypothesis's basis columns and facCols the
// per-term factor column references they were assembled from (for the
// prediction replay); nonFinite the rows where any term column is
// NaN/Inf; owner/lastTerms memoize the context and hypothesis they were
// prepared for, since a replay re-prepares the hypothesis just scored.
// xtx/xty are the accumulated normal equations, ws the solver workspace,
// preds/acts the replayed fold predictions, coef the full-data
// coefficients of the scored hypothesis, rows backs fullPreds and ones,
// and shapes/cands hold the stage-1 ranking and the selection.
type fitScratch struct {
	owner     *fitContext
	lastTerms []pmnf.Term
	termCols  [][]float64
	facCols   [][][]float64
	nonFinite []int
	xtx       [][]float64
	xty       []float64
	ws        mathutil.SolveWorkspace
	preds     []float64
	acts      []float64
	coef      []float64
	rows      []float64
	shapes    []scoredShape
	cands     []candidate

	// Hypothesis and candidate storage: the task's sparse hypothesis
	// list, the full-data coefficients of every selection candidate back
	// to back (see candidate.coef), and the terms a candidate's growth is
	// read from.
	space       hypothesisSpace
	candCoefs   []float64
	growthTerms []pmnf.Term

	// PRESS scratch: the Cholesky factor of the scaled normal matrix
	// B = D⁻¹XᵀXD⁻¹, its inverse and B⁻¹ (c×c, row-major), the column
	// scales D and their inverses, one fold's scaled row z = D⁻¹xᵢ,
	// g = B⁻¹z and the downdated scaled coefficients.
	chol, linv, binv  []float64
	dcol, dinv        []float64
	zrow, grow, wfold []float64
	wfull             []float64
}

// The fit cache. A task's basis columns and search space depend only on
// its measurement points, the exponent sets and the term budget, and the
// fit tasks of one campaign overwhelmingly share their points (one task
// per kernel × metric over the same configurations). So the first task
// for such a key builds one immutable basisEntry — every shape's factor
// column at every parameter, the expanded shapes and, for
// one-parameter rows, the single-parameter hypothesis list — and later
// tasks read it. Every value is a pure function of the key, so a racing
// double-build is bit-identical and determinism is unaffected. The cache
// holds at most basisCacheCap entries: publishing into a full cache
// empties it first, so a long-lived process keeps the point sets it is
// fitting now.
var (
	basisMu    sync.RWMutex
	basisCache = make(map[basisSig]*basisEntry)
)

const basisCacheCap = 256

// basisSig is the fit-cache key: a two-lane FNV-1a content hash over the
// row bits, exponent sets and term budget, plus the row/arity counts. It
// replaced a canonical-string key that built a multi-kilobyte string per
// fit task — the single largest allocation on the fit path (allocloop's
// first repo finding). The hash itself is not trusted for equality:
// lookups verify the stored content byte-for-byte (see
// basisEntry.matches), so even a 128-bit collision cannot cross-seed
// columns between tasks — the colliding task builds its own entry.
type basisSig struct {
	h1, h2   uint64
	n, arity int
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// basisSignature hashes the row contents, the exponent sets and the term
// budget into a basisSig, allocation-free.
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
	mix(uint64(opts.MaxTerms))
	arity := 0
	if len(rows) > 0 {
		arity = len(rows[0])
	}
	return basisSig{h1: h1, h2: h2, n: len(rows), arity: arity}
}

// basisEntry is one fit-cache entry: a verbatim copy of the keyed
// content, so lookups verify real equality instead of trusting the hash,
// and the search space built from it. Nothing in it is mutated after
// construction.
type basisEntry struct {
	flat     []float64 // row-major copy of the keyed rows
	lens     []int     // per-row arity (points are uniform, but verify anyway)
	poly     []float64
	logE     []int
	maxTerms int

	// cols holds the factor column of every shape at every parameter,
	// shapes the expanded exponent sets, and hyps the single-parameter
	// hypothesis list (one-parameter rows only).
	cols   map[pmnf.Factor][]float64
	shapes []pmnf.Factor
	hyps   []hypothesis
}

// matches reports whether the entry was keyed by exactly these rows,
// exponent sets and term budget, comparing float content bit for bit.
func (e *basisEntry) matches(rows [][]float64, opts Options) bool {
	if len(e.lens) != len(rows) || e.maxTerms != opts.MaxTerms {
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
	return slices.EqualFunc(e.poly, opts.PolyExponents, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) &&
		slices.Equal(e.logE, opts.LogExponents)
}

// newBasisEntry builds the entry for rows and opts: the copy of the keyed
// content, the shapes, every shape's column at every parameter, and for
// one-parameter rows the hypothesis list.
func newBasisEntry(rows [][]float64, opts Options) *basisEntry {
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	arity := len(rows[0])
	e := &basisEntry{
		flat:     make([]float64, 0, total),
		lens:     make([]int, len(rows)),
		poly:     slices.Clone(opts.PolyExponents),
		logE:     slices.Clone(opts.LogExponents),
		maxTerms: opts.MaxTerms,
		shapes:   buildShapes(opts),
	}
	for i, row := range rows {
		e.lens[i] = len(row)
		e.flat = append(e.flat, row...)
	}
	e.cols = make(map[pmnf.Factor][]float64, arity*len(e.shapes))
	for _, f := range e.shapes {
		for p := 0; p < arity; p++ {
			f.Param = p
			e.cols[f] = pmnf.FactorColumn(rows, f)
		}
	}
	if arity == 1 {
		e.hyps = hypotheses(opts)
	}
	return e
}

// sharedBasis returns the cache entry for the given rows and options,
// building and publishing it on first use. A verified hash collision
// gets an entry of its own that is not published: a pure slowdown, never
// a correctness change, since every column is a pure function of the
// rows.
func sharedBasis(rows [][]float64, opts Options) *basisEntry {
	sig := basisSignature(rows, opts)
	basisMu.RLock()
	e := basisCache[sig]
	basisMu.RUnlock()
	if e != nil {
		if e.matches(rows, opts) {
			return e
		}
		return newBasisEntry(rows, opts)
	}
	e = newBasisEntry(rows, opts)
	basisMu.Lock()
	if basisCache[sig] == nil {
		if len(basisCache) >= basisCacheCap {
			clear(basisCache)
		}
		basisCache[sig] = e
	}
	basisMu.Unlock()
	return e
}

// newFitContext builds the engine state for one fit task; bind gives it
// scratch before the first hypothesis is scored. opts must already be
// normalized and (points, values) validated.
func newFitContext(points []measurement.Point, values []float64, opts Options) *fitContext {
	rows := make([][]float64, len(points))
	for i, p := range points {
		rows[i] = p
	}
	var yy float64
	for _, v := range values {
		yy += v * v
	}
	//edlint:ignore logdomain a sum of squares cannot be negative
	ynorm := math.Sqrt(yy)
	return &fitContext{
		points: points,
		values: values,
		opts:   opts,
		basis:  sharedBasis(rows, opts),
		ynorm:  ynorm,
	}
}

// scratchPool recycles task scratch between fit tasks. Every buffer is
// written before it is read, so reuse never changes a result.
var scratchPool = sync.Pool{New: func() any { return new(fitScratch) }}

// bind makes sc the context's scratch.
func (fc *fitContext) bind(sc *fitScratch) {
	n := len(fc.points)
	if len(sc.rows) < 2*n {
		sc.rows = make([]float64, 2*n)
		for r := n; r < 2*n; r++ {
			sc.rows[r] = 1.0
		}
	}
	fc.fitScratch = sc
	fc.fullPreds = sc.rows[:n:n]
	fc.ones = sc.rows[len(sc.rows)-n:]
}

// prepare caches the basis columns of h's terms — and the factor columns
// they are built from — and records the rows at which any term column is
// non-finite. A repeated call for the hypothesis just prepared on this
// context is a no-op: a replay re-prepares the hypothesis just scored,
// and the memo spares the second column assembly.
func (fc *fitContext) prepare(h hypothesis) {
	k := len(h.terms)
	if fc.owner == fc && k == len(fc.lastTerms) && (k == 0 || &h.terms[0] == &fc.lastTerms[0]) {
		return
	}
	fc.owner = fc
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
			facs = append(facs, fc.basis.cols[f])
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
// Each entry of the upper triangle is summed over the rows in row order,
// as mathutil.LeastSquares sums it, so the solution is bit-identical to
// building the design matrix and solving directly; summing one entry at a
// time over contiguous columns only changes which entry is worked on
// when. The returned slice aliases solver scratch; callers use it before
// the next solve.
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
		if cap(fc.xtx[i]) < cols {
			fc.xtx[i] = make([]float64, cols)
		}
		fc.xtx[i] = fc.xtx[i][:cols] // a replay may follow a wider hypothesis
	}
	for len(fc.xty) < cols {
		fc.xty = append(fc.xty, 0)
	}
	for i := 0; i < cols; i++ {
		ci := fc.column(i)
		fc.xty[i] = dotSkip(ci, fc.values, leave)
		for j := i; j < cols; j++ {
			fc.xtx[i][j] = dotSkip(ci, fc.column(j), leave)
		}
		for j := 0; j < i; j++ {
			fc.xtx[i][j] = fc.xtx[j][i]
		}
	}
	return mathutil.SolveLinearSystemInto(fc.xtx[:cols], fc.xty[:cols], &fc.ws)
}

// column returns design-matrix column i: the constant column of ones,
// then the prepared hypothesis's term columns.
func (fc *fitContext) column(i int) []float64 {
	if i == 0 {
		return fc.ones
	}
	return fc.termCols[i-1]
}

// dotSkip returns Σ a[r]·b[r] over the rows r ≠ leave, summed in row
// order.
func dotSkip(a, b []float64, leave int) float64 {
	var s float64
	for r := 0; r < leave; r++ {
		s += a[r] * b[r]
	}
	for r := leave + 1; r < len(a); r++ {
		s += a[r] * b[r]
	}
	return s
}

// negativeTerm reports whether NonNegativeCoefficients rejects a solved
// coefficient vector: some term coefficient is negative (the constant
// may take any sign).
func (fc *fitContext) negativeTerm(coefs []float64) bool {
	if !fc.opts.NonNegativeCoefficients {
		return false
	}
	for _, c := range coefs[1:] {
		if c < 0 {
			return true
		}
	}
	return false
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

// solveFull prepares h and solves its full-data normal equations into
// fc.coef, with the full-data predictions in fc.fullPreds, leaving the
// accumulated XᵀX in fc.xtx for the PRESS factorization. It reports
// false when the full-data regression is degenerate — the oracle's
// full-data fit fails for exactly the same inputs.
func (fc *fitContext) solveFull(h hypothesis) bool {
	fc.prepare(h)
	if len(fc.nonFinite) > 0 {
		return false
	}
	coefs, err := fc.solveFold(len(h.terms), -1)
	if err != nil {
		return false
	}
	fc.coef = append(fc.coef[:0], coefs...)
	for r := range fc.fullPreds {
		fc.fullPreds[r] = fc.predictRow(h, fc.coef, r)
	}
	return true
}

// candidate records hypothesis hyps[idx] as a selection candidate with
// the full-data coefficients fc.coef, which it appends to candCoefs. Its
// growth comes from pmnf.Function.Growth over a function whose terms sit
// in scratch, so no function is allocated.
func (fc *fitContext) candidate(h hypothesis, idx int, cv cvScore, rss float64) candidate {
	off := len(fc.candCoefs)
	fc.candCoefs = append(fc.candCoefs, fc.coef[:1+len(h.terms)]...)
	terms := fc.growthTerms[:0]
	for i, t := range h.terms {
		terms = append(terms, pmnf.Term{Coefficient: fc.coef[i+1], Factors: t.Factors})
	}
	fc.growthTerms = terms
	fn := pmnf.Function{Terms: terms}
	return candidate{
		growth: fn.Growth(),
		cv:     cv,
		rss:    rss,
		coef:   int32(off),
		idx:    int32(idx),
		terms:  int32(len(h.terms)),
	}
}

// function builds the fitted PMNF instance of h with the coefficients
// coefs. The function owns its factor slices: h may live in pooled
// scratch the next task overwrites.
func function(h hypothesis, coefs []float64) *pmnf.Function {
	n := 0
	for _, t := range h.terms {
		n += len(t.Factors)
	}
	facs := make([]pmnf.Factor, 0, n)
	fn := &pmnf.Function{Constant: coefs[0], Terms: make([]pmnf.Term, 0, len(h.terms))}
	for i, t := range h.terms {
		start := len(facs)
		facs = append(facs, t.Factors...)
		fn.Terms = append(fn.Terms, pmnf.Term{Coefficient: coefs[i+1], Factors: facs[start:len(facs):len(facs)]})
	}
	return fn
}

// crossValidate computes the leave-one-out CV-SMAPE of hypothesis h by
// replaying every fold's solve from the cached columns in the oracle's
// operation order, preserving its per-fold singularity and
// coefficient-sign rejections bit for bit. It is the guard's exact path.
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
		if fc.negativeTerm(coefs) {
			return 0, false
		}
		fc.preds = append(fc.preds, fc.predictRow(h, coefs, leave))
		fc.acts = append(fc.acts, fc.values[leave])
	}
	return mathutil.SMAPE(fc.preds, fc.acts)
}

// cvScore is a hypothesis's leave-one-out CV-SMAPE as selection sees it:
// the replayed value when exact, else the PRESS value, with err the
// half-width of the interval the replayed value is bound to lie in.
type cvScore struct {
	smape, err float64
	exact      bool
}

func (s cvScore) lo() float64 { return s.smape - s.err }
func (s cvScore) hi() float64 { return s.smape + s.err }

// finite reports whether the score and its bound are usable for interval
// reasoning.
func (s cvScore) finite() bool {
	return !math.IsNaN(s.smape) && !math.IsInf(s.smape, 0) && !math.IsNaN(s.err) && !math.IsInf(s.err, 0)
}

// overlaps reports whether the two scores' closed intervals intersect.
func (s cvScore) overlaps(t cvScore) bool { return s.lo() <= t.hi() && t.lo() <= s.hi() }

// Guard counters, process-wide: hypotheses scored and how many of them
// were replayed fold by fold. Tests read them to keep both branches of
// the guard exercised and the replay share honest.
var guardScored, guardReplayed atomic.Int64

// flush moves the context's counts into the guard counters.
func (fc *fitContext) flush() {
	guardScored.Add(int64(fc.scored))
	guardReplayed.Add(int64(fc.replayed))
	fc.scored, fc.replayed = 0, 0
}

// replay scores h exactly: the oracle's fold-by-fold CV-SMAPE.
func (fc *fitContext) replay(h hypothesis) (cvScore, bool) {
	fc.replayed++
	s, ok := fc.crossValidate(h)
	return cvScore{smape: s, exact: true}, ok
}

// scoreCV scores h's leave-one-out cross-validation after solveFull(h)
// succeeded: on the PRESS path when the guard can bound it, else by
// replay. ok is false when the oracle would reject h's folds.
func (fc *fitContext) scoreCV(h hypothesis) (cvScore, bool) {
	fc.scored++
	if len(fc.points)-1 < len(h.terms)+1 {
		return cvScore{}, false // every fold is under-determined
	}
	if s, ok, decided := fc.press(h); decided {
		return s, ok
	}
	return fc.replay(h)
}

// The PRESS error bound. Every fold prediction the replay produces and
// the one PRESS derives are both within a first-order rounding bound of
// the fold's exact least-squares prediction, so they differ by at most
//
//	δᵢ = γ·κᵢ·(|rᵢ| + √c·(2‖w‖ + ‖gᵢ‖·|rᵢ| + 2‖y‖)),  γ = guardSafety·(n+c)·u,
//
// where u is the unit roundoff, κᵢ = c·tr(B⁻¹)/(1−hᵢᵢ) bounds the
// 2-norm condition number of the fold's scaled normal matrix
// B₍₋ᵢ₎ = B − zᵢzᵢᵀ (B = D⁻¹XᵀXD⁻¹, D² = diag XᵀX, zᵢ = D⁻¹xᵢ), rᵢ is the
// LOO residual eᵢ/(1−hᵢᵢ), w = Dc the scaled coefficients and
// gᵢ = B⁻¹zᵢ, so that ‖w‖ + ‖gᵢ‖·|rᵢ| bounds the scaled fold
// coefficients w₍₋ᵢ₎ = w − gᵢrᵢ. The same factor times (1+‖gᵢ‖) bounds
// each of them, which decides the NonNegativeCoefficients rejection.
// When γ·κᵢ exceeds guardMaxRel the first-order bound is not trusted and
// h is replayed.
const (
	unitRoundoff = 0x1p-53
	guardSafety  = 32
	guardMaxRel  = 1e-4
	// pivotCut is SolveLinearSystemInto's singular cut on scaled pivots;
	// a fold whose smallest scaled pivot may come within pivotMargin of
	// it is replayed.
	pivotCut    = 1e-13
	pivotMargin = 4
)

// growPress sizes the PRESS scratch for c coefficients, in one
// allocation (sized for at least three coefficients, the widest
// hypothesis of the sparse search).
func (fc *fitContext) growPress(c int) {
	if len(fc.chol) >= c*c {
		return
	}
	c = max(c, 3)
	buf := make([]float64, 3*c*c+6*c)
	take := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	fc.chol, fc.linv, fc.binv = take(c*c), take(c*c), take(c*c)
	fc.dcol, fc.dinv, fc.zrow, fc.grow, fc.wfold, fc.wfull = take(c), take(c), take(c), take(c), take(c), take(c)
}

// press scores h's leave-one-out folds from the full-data normal
// equations fc.xtx and coefficients fc.coef that solveFull(h) left
// behind. decided is false when the guard must replay h; otherwise ok
// reports whether the oracle accepts every fold, and s is the PRESS
// CV-SMAPE with its error bound.
func (fc *fitContext) press(h hypothesis) (s cvScore, ok, decided bool) {
	n := len(fc.points)
	c := len(h.terms) + 1
	fc.growPress(c)
	L, li, bi := fc.chol[:c*c], fc.linv[:c*c], fc.binv[:c*c]
	d, dinv := fc.dcol[:c], fc.dinv[:c]
	for k := 0; k < c; k++ {
		a := fc.xtx[k][k]
		if !(a > 0) || math.IsInf(a, 0) {
			return cvScore{}, false, false
		}
		d[k] = math.Sqrt(a)
		dinv[k] = 1 / d[k]
	}
	// Cholesky factor L of B, then L⁻¹ and B⁻¹ = L⁻ᵀL⁻¹; tr(B⁻¹) gives
	// the condition estimate and det B = Π Lₖₖ² the pivot bound.
	detB := 1.0
	for i := 0; i < c; i++ {
		for j := 0; j <= i; j++ {
			v := fc.xtx[i][j] * dinv[i] * dinv[j]
			for m := 0; m < j; m++ {
				v -= L[i*c+m] * L[j*c+m]
			}
			if i == j {
				if !(v > 0) {
					return cvScore{}, false, false
				}
				L[i*c+i] = math.Sqrt(v)
				detB *= v
				continue
			}
			L[i*c+j] = v / L[j*c+j]
		}
	}
	for j := 0; j < c; j++ {
		li[j*c+j] = 1 / L[j*c+j]
		for i := j + 1; i < c; i++ {
			v := 0.0
			for m := j; m < i; m++ {
				v -= L[i*c+m] * li[m*c+j]
			}
			li[i*c+j] = v / L[i*c+i]
		}
	}
	trace := 0.0
	for i := 0; i < c; i++ {
		for j := 0; j <= i; j++ {
			v := 0.0
			for m := i; m < c; m++ {
				v += li[m*c+i] * li[m*c+j]
			}
			bi[i*c+j], bi[j*c+i] = v, v
		}
		trace += bi[i*c+i]
	}
	kappa := float64(c) * trace
	gamma := guardSafety * float64(n+c) * unitRoundoff
	if !(gamma*kappa <= guardMaxRel) {
		return cvScore{}, false, false
	}
	w := fc.wfull[:c]
	wn := 0.0
	for k := range w {
		w[k] = d[k] * fc.coef[k]
		wn += w[k] * w[k]
	}
	//edlint:ignore logdomain a sum of squares cannot be negative
	wn = math.Sqrt(wn)
	sqrtC := math.Sqrt(float64(c))
	// The replay eliminates each fold matrix A₍₋ᵢ₎ = XᵀX − xᵢxᵢᵀ with
	// partial pivoting on its rows scaled to unit maximum, which keeps
	// every scaled pivot at or below 2^k; the smallest is therefore at
	// least |det| / 2^(c(c−1)/2) of the scaled matrix. Its determinant is
	// det B·(1−hᵢᵢ)·Π Dₖ², and by Cauchy–Schwarz every entry of row k is
	// at most Dₖ·max D (plus the accumulation error), so the smallest
	// scaled pivot of fold i is at least pivBase·(1−hᵢᵢ).
	dmax := 0.0
	for _, v := range d {
		dmax = math.Max(dmax, v)
	}
	pivBase := detB / math.Ldexp(1, c*(c-1)/2)
	for _, v := range d {
		pivBase *= v / (dmax * (1 + gamma))
	}

	z, g, wf := fc.zrow[:c], fc.grow[:c], fc.wfold[:c]
	undecided := false
	var total, spread float64
	for i := 0; i < n; i++ {
		z[0] = dinv[0]
		for k := 1; k < c; k++ {
			z[k] = fc.termCols[k-1][i] * dinv[k]
		}
		lev := 0.0
		for k := 0; k < c; k++ {
			v := 0.0
			for j := 0; j < c; j++ {
				v += bi[k*c+j] * z[j]
			}
			g[k] = v
			lev += z[k] * v
		}
		om := 1 - lev
		rel := gamma * kappa / om
		if !(om > 0) || !(rel <= guardMaxRel) || !(pivBase*om >= pivotMargin*pivotCut) {
			return cvScore{}, false, false
		}
		y := fc.values[i]
		r := (y - fc.fullPreds[i]) / om
		gn := 0.0
		for k := range wf {
			wf[k] = w[k] - g[k]*r
			gn += g[k] * g[k]
		}
		//edlint:ignore logdomain a sum of squares cannot be negative
		gn = math.Sqrt(gn)
		ar := math.Abs(r)
		// ‖w₍₋ᵢ₎‖ ≤ ‖w‖ + ‖g‖·|r|.
		scale := ar + sqrtC*(2*wn+gn*ar+2*fc.ynorm)
		if fc.opts.NonNegativeCoefficients {
			beta := rel * (1 + gn) * scale
			for k := 1; k < c; k++ {
				if wf[k] < -beta {
					return cvScore{}, false, true // this fold's replay rejects h
				}
				if wf[k] <= beta {
					undecided = true
				}
			}
		}
		// The fold's SMAPE term and how far the replayed one can be:
		// |∂/∂p of 2|p−a|/(|p|+|a|)| ≤ 4/(|p|+|a|), and the term is in
		// [0, 2].
		p, e := y-r, rel*scale
		den := math.Abs(p) + math.Abs(y)
		if den != 0 {
			total += 2 * math.Abs(p-y) / den
		}
		if den-e > 0 {
			spread += math.Min(2, 4*e/(den-e))
		} else {
			spread += 2
		}
	}
	if undecided {
		return cvScore{}, false, false
	}
	s.smape = total / float64(n) * 100
	s.err = spread / float64(n) * 100
	// Both paths round the SMAPE sum itself.
	s.err += 2 * float64(n+6) * unitRoundoff * (s.smape + s.err)
	if !s.finite() {
		return cvScore{}, false, false
	}
	return s, true, true
}

// rankLine is the engine's stage-1 ranker: it scores the single-shape
// hypotheses hs on the axis line (a sub-context over the line's own
// fit-cache entry; the full context when the search fell back to the
// complete point set).
func (fc *fitContext) rankLine(points []measurement.Point, values []float64, hs []hypothesis) []rated {
	if len(points) == len(fc.points) && len(points) > 0 && &points[0] == &fc.points[0] {
		return fc.rankShapes(hs)
	}
	lc := newFitContext(points, values, fc.opts)
	lc.bind(fc.fitScratch)
	top := lc.rankShapes(hs)
	lc.flush()
	return top
}

// scoredShape is one stage-1 entry while the ranking settles: the index
// of its hypothesis (negative once a replay rejected it) and its score.
type scoredShape struct {
	idx int
	cv  cvScore
}

// rankShapes scores the single-shape hypotheses hs and returns the
// sparseTopShapes best in ratedLess order — the ranking the oracle's
// scores give. It replays exactly every shape that could make the cut
// and whose interval overlaps another such shape's; the others are
// strictly ordered by their intervals. Any unusable score replays all.
func (fc *fitContext) rankShapes(hs []hypothesis) []rated {
	ss := fc.shapes[:0]
	for i, h := range hs {
		var cv cvScore
		var ok bool
		if fc.solveFull(h) {
			cv, ok = fc.scoreCV(h)
		} else {
			fc.scored++
			cv, ok = fc.replay(h)
		}
		if ok {
			ss = append(ss, scoredShape{idx: i, cv: cv})
		}
	}
	for replayed := true; replayed; {
		replayed = false
		all := false
		for _, e := range ss {
			all = all || !e.cv.finite()
		}
		hk := cutHi(ss)
		for i := range ss {
			if !ss[i].cv.exact && (all || contender(ss, i, hk)) {
				cv, ok := fc.replay(hs[ss[i].idx])
				ss[i].cv = cv
				if !ok {
					ss[i].idx = -1
				}
				replayed = true
			}
		}
		kept := ss[:0]
		for _, e := range ss {
			if e.idx >= 0 {
				kept = append(kept, e)
			}
		}
		ss = kept
	}
	shape := func(e scoredShape) rated { return rated{shape: hs[e.idx].terms[0].Factors[0], smape: e.cv.smape} }
	slices.SortStableFunc(ss, func(a, b scoredShape) int { return compareBy(ratedLess, shape(a), shape(b)) })
	rs := make([]rated, min(len(ss), sparseTopShapes))
	for i := range rs {
		rs[i] = shape(ss[i])
	}
	fc.shapes = ss
	return rs
}

// cutHi returns the sparseTopShapes-th smallest upper interval end: a
// shape whose lower end lies above it is beaten by at least that many
// shapes for certain. It is +Inf while no more shapes than that remain.
func cutHi(ss []scoredShape) float64 {
	var best [sparseTopShapes]float64
	for i := range best {
		best[i] = math.Inf(1)
	}
	for _, e := range ss {
		v := e.cv.hi()
		for k := range best {
			if v < best[k] {
				copy(best[k+1:], best[k:len(best)-1])
				best[k] = v
				break
			}
		}
	}
	return best[len(best)-1]
}

// contender reports whether shape i needs an exact score: it could make
// the cut below hk and its interval overlaps another such shape's.
func contender(ss []scoredShape, i int, hk float64) bool {
	if ss[i].cv.exact || ss[i].cv.lo() > hk {
		return false
	}
	for j := range ss {
		if j != i && ss[j].cv.lo() <= hk && ss[i].cv.overlaps(ss[j].cv) {
			return true
		}
	}
	return false
}

// candidate is one accepted hypothesis of the selection: the growth of
// its fitted function, its CV score and full-data RSS, the offset of its
// full-data coefficients in candCoefs, the index and term count of its
// hypothesis, and whether a replay rejected it. Only the winner's
// function is ever built.
type candidate struct {
	growth   pmnf.Growth
	cv       cvScore
	rss      float64
	coef     int32
	idx      int32
	terms    int32
	rejected bool
}

// compareBy turns the strict order less into a comparison function for
// the slices sorts: negative exactly when less(a, b), so a stable sort
// calls less on the same pairs and yields the same order as
// sort.SliceStable with less.
func compareBy[T any](less func(a, b T) bool, a, b T) int {
	if less(a, b) {
		return -1
	}
	if less(b, a) {
		return 1
	}
	return 0
}

// candLess is the selection order: CV-SMAPE, then fewer terms, then
// lower RSS.
func candLess(a, b *candidate) bool {
	if a.cv.smape < b.cv.smape {
		return true
	}
	if a.cv.smape > b.cv.smape {
		return false
	}
	if a.terms != b.terms {
		return a.terms < b.terms
	}
	return a.rss < b.rss
}

// occamThreshold is the CV-SMAPE up to which candidates count as
// statistically indistinguishable from the best one, min.
func occamThreshold(min float64) float64 { return min + math.Max(0.05, 0.5*min) }

// occamLess orders candidates for the Occam preference: slower growth,
// then fewer terms.
func occamLess(a, b *candidate) bool {
	cmp := a.growth.Compare(b.growth)
	return cmp < 0 || (cmp == 0 && a.terms < b.terms)
}

// growthTol is pmnf.Growth.Compare's tolerance on polynomial degrees.
const growthTol = 1e-9

// settle replays exactly the candidates whose interval straddles a
// decision of selectBest: which candidate has the minimum CV-SMAPE,
// which fall under the Occam threshold, and the order inside the
// winner's (growth, terms) tie group. Sorting the settled scores then
// makes the choice the replayed scores make. Candidates a replay rejects
// are dropped.
func (fc *fitContext) settle(hyps []hypothesis, cands []candidate) []candidate {
	for fc.settleRound(hyps, cands) {
		kept := cands[:0]
		for _, c := range cands {
			if !c.rejected {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	return cands
}

// settleRound replays the candidates of the first undecided decision and
// reports whether it replayed any.
func (fc *fitContext) settleRound(hyps []hypothesis, cands []candidate) bool {
	replayed := false
	replay := func(c *candidate) {
		if c.cv.exact {
			return
		}
		cv, ok := fc.replay(hyps[c.idx])
		c.cv = cv
		if !ok {
			c.rejected = true
		}
		replayed = true
	}
	// Unusable scores: replay everything.
	for i := range cands {
		if !cands[i].cv.finite() || math.IsNaN(cands[i].rss) {
			for j := range cands {
				replay(&cands[j])
			}
			return replayed
		}
	}
	// The minimum: every candidate that could hold it.
	lowHi := math.Inf(1)
	for i := range cands {
		lowHi = math.Min(lowHi, cands[i].cv.hi())
	}
	for i := range cands {
		if cands[i].cv.lo() <= lowHi {
			replay(&cands[i])
		}
	}
	if replayed || len(cands) == 0 {
		return replayed
	}
	head := &cands[0]
	for i := range cands {
		if candLess(&cands[i], head) {
			head = &cands[i]
		}
	}
	// The Occam threshold: every candidate whose interval straddles it.
	threshold := occamThreshold(head.cv.smape)
	for i := range cands {
		if c := &cands[i]; c.cv.lo() <= threshold && c.cv.hi() > threshold {
			replay(c)
		}
	}
	if replayed {
		return true
	}
	// The tie group: among the contenders the Occam loop can pick (the
	// head and every non-constant candidate under the threshold), the
	// ones with the least (growth, terms). The loop picks the first of
	// them in selection order, so every member that could come first is
	// replayed. If the growth comparison's tolerance could make that
	// order intransitive, every contender is replayed so the loop runs on
	// exact scores.
	contends := func(c *candidate) bool { return c == head || (c.cv.smape <= threshold && c.terms > 0) }
	var least *candidate
	transitive := true
	for i := range cands {
		a := &cands[i]
		if !contends(a) {
			continue
		}
		if least == nil || occamLess(a, least) {
			least = a
		}
		pa := a.growth.PolyDegree
		for j := range cands[:i] {
			b := &cands[j]
			if !contends(b) {
				continue
			}
			if gap := math.Abs(pa - b.growth.PolyDegree); gap > growthTol/4 && gap <= 2*growthTol {
				transitive = false
			}
		}
	}
	tied := func(c *candidate) bool { return contends(c) && !occamLess(least, c) }
	firstHi := math.Inf(1)
	for i := range cands {
		if c := &cands[i]; tied(c) {
			firstHi = math.Min(firstHi, c.cv.hi())
		}
	}
	for i := range cands {
		if c := &cands[i]; contends(c) && (!transitive || (tied(c) && c.cv.lo() <= firstHi)) {
			replay(c)
		}
	}
	return replayed
}

// selectBest evaluates all hypotheses on the engine and returns the
// fitted model with the smallest cross-validated SMAPE (ties broken by
// fewer terms, then lower RSS), followed by the Occam preference among
// statistically indistinguishable candidates. The logic matches the
// oracle's selectBestDirect, and settle makes every decision on the
// scores the oracle computes, so selection is bit-identical.
func (fc *fitContext) selectBest(hyps []hypothesis) (*Model, error) {
	n := len(fc.points)
	cands := fc.cands[:0]
	fc.candCoefs = fc.candCoefs[:0]
	for i, h := range hyps {
		if !fc.solveFull(h) || fc.negativeTerm(fc.coef) {
			continue
		}
		cv, ok := fc.scoreCV(h)
		if !ok {
			continue
		}
		rss, _ := mathutil.RSS(fc.fullPreds, fc.values)
		cands = append(cands, fc.candidate(h, i, cv, rss))
	}
	fc.cands = cands
	cands = fc.settle(hyps, cands)
	if len(cands) == 0 {
		return nil, ErrNoHypothesis
	}
	slices.SortStableFunc(cands, func(a, b candidate) int { return compareBy(candLess, &a, &b) })
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
	threshold := occamThreshold(cands[0].cv.smape)
	best := &cands[0]
	for i := range cands[1:] {
		c := &cands[i+1]
		if c.cv.smape > threshold {
			break // sorted by smape: all following are worse
		}
		if c.terms == 0 {
			continue // never flatten to the constant via the tie-break
		}
		if occamLess(c, best) {
			best = c
		}
	}
	h := hyps[best.idx]
	if !best.cv.exact {
		best.cv, _ = fc.replay(h) // the reported SMAPE is the replayed one
	}

	// Full-data predictions of the winner from its cached factor columns.
	coefs := fc.candCoefs[best.coef : best.coef+1+best.terms]
	fc.prepare(h)
	preds := make([]float64, n)
	for i := range preds {
		preds[i] = fc.predictRow(h, coefs, i)
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
		Function:       function(h, coefs),
		SMAPE:          best.cv.smape,
		RSS:            best.rss,
		R2:             r2,
		RelResidualStd: relStd,
		Points:         fc.points,
		Actual:         append([]float64(nil), fc.values...),
	}
	return model, nil
}

// fitValidated runs the design-matrix engine's hypothesis search and
// model selection for one fit task whose inputs are validated and whose
// options are normalized, whatever the oracle flag says. The engine
// context lives only for this call; its scratch comes from scratchPool,
// so concurrent tasks share nothing mutable.
func fitValidated(points []measurement.Point, values []float64, opts Options) (*Model, error) {
	fc := newFitContext(points, values, opts)
	sc := scratchPool.Get().(*fitScratch)
	fc.bind(sc)
	m, err := fc.search()
	fc.flush()
	sc.owner, sc.lastTerms = nil, nil
	fc.fitScratch = nil
	scratchPool.Put(sc)
	return m, err
}

// search runs the hypothesis search and model selection on the bound
// scratch.
func (fc *fitContext) search() (*Model, error) {
	arity := len(fc.points[0])
	var hyps []hypothesis
	if arity == 1 {
		hyps = fc.basis.hyps
	} else {
		// Multi-parameter sparse modeling: a full cross product of shape
		// combinations is quadratic in the (large) shape set and makes
		// model search orders of magnitude slower. Following Extra-P's
		// sparse-modeling approach, first evaluate single-parameter
		// hypotheses, then build combinations only from the best few
		// shapes per parameter.
		hyps = sparseSearch(arity, fc.points, fc.values, fc.basis.shapes, fc.rankLine, &fc.space)
	}
	if len(hyps) == 0 {
		return nil, ErrNoHypothesis
	}
	return fc.selectBest(hyps)
}
