package modeling

import (
	"errors"
	"math"
	"os"
	"sort"

	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/pmnf"
)

// This file is the reference oracle: the pre-engine direct-solve fit
// path, kept verbatim so the design-matrix engine (fitcontext.go) has a
// frozen implementation to verify against. Every fit here re-evaluates
// the basis terms into a fresh design matrix and re-solves the
// least-squares system per hypothesis and per cross-validation fold —
// exactly what the engine replays from cached columns. The propcheck
// suite pins engine ≡ oracle selection (same winning hypothesis, same
// coefficient bits) over randomized inputs; EDFIT_ORACLE=1 routes a
// whole run through this path for end-to-end cross-checks.

// forceOracle routes every fit through the oracle. It is an
// internal verification knob: set via the EDFIT_ORACLE environment
// variable (read once at startup) for a whole process, or flipped
// directly by in-package tests. Not part of the public API.
var forceOracle = os.Getenv("EDFIT_ORACLE") != ""

// fitOracle is the oracle's Fit: the same hypothesis generation as the
// engine (sparse ranking included, via the oracle's cross-validation),
// built into fresh storage that shares nothing with the fit cache, and
// selected by the direct-solve selectBestDirect. Inputs must already be
// validated and opts normalized.
func fitOracle(points []measurement.Point, values []float64, opts Options) (*Model, error) {
	arity := len(points[0])
	var hyps []hypothesis
	if arity == 1 {
		hyps = hypotheses(opts)
	} else {
		hyps = sparseSearch(arity, buildShapes(opts), oracleRanker(points, values, opts), nil)
	}
	if len(hyps) == 0 {
		return nil, ErrNoHypothesis
	}
	return selectBestDirect(points, values, hyps, opts)
}

// oracleRanker is the oracle's stage-1 ranker over (points, values): each
// parameter's axis line, cut afresh, scored by crossValidateDirect.
func oracleRanker(points []measurement.Point, values []float64, opts Options) topRanker {
	return func(param int, hs []hypothesis) []rated {
		pts, vals := axisLine(points, values, param)
		if len(pts) < minLinePoints {
			pts, vals = points, values
		}
		return rankByCV(func(h hypothesis) (float64, bool) { return crossValidateDirect(h, pts, vals, opts) }, hs)
	}
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
		rs = append(rs, rated{shape: h.terms[0].Factors[0], col: h.cols[0], smape: smape})
	}
	sort.SliceStable(rs, func(i, j int) bool { return ratedLess(rs[i], rs[j]) })
	if len(rs) > sparseTopShapes {
		rs = rs[:sparseTopShapes]
	}
	return rs
}

// designMatrix builds the regression design matrix for a hypothesis: the
// first column is the constant basis, followed by one column per term.
func designMatrix(h hypothesis, points []measurement.Point) [][]float64 {
	x := make([][]float64, len(points))
	for r, p := range points {
		row := make([]float64, 1+len(h.terms))
		row[0] = 1
		vals := []float64(p)
		for c, term := range h.terms {
			row[c+1] = term.EvalBasis(vals)
		}
		x[r] = row
	}
	return x
}

// fitHypothesisDirect fits h's coefficients on (points, values) and
// returns the resulting function, or an error when the regression is
// degenerate.
func fitHypothesisDirect(h hypothesis, points []measurement.Point, values []float64, opts Options) (*pmnf.Function, error) {
	x := designMatrix(h, points)
	for _, row := range x {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, errors.New("modeling: basis function undefined at a measurement point")
			}
		}
	}
	coef, err := mathutil.LeastSquares(x, values)
	if err != nil {
		return nil, err
	}
	fn := &pmnf.Function{Constant: coef[0]}
	for i, term := range h.terms {
		c := coef[i+1]
		if opts.NonNegativeCoefficients && c < 0 {
			return nil, errors.New("modeling: negative term coefficient rejected")
		}
		fn.Terms = append(fn.Terms, pmnf.Term{Coefficient: c, Factors: term.Factors})
	}
	return fn, nil
}

// crossValidateDirect computes the leave-one-out SMAPE of hypothesis h:
// for every point the model is refitted without it and asked to predict
// it.
func crossValidateDirect(h hypothesis, points []measurement.Point, values []float64, opts Options) (float64, bool) {
	n := len(points)
	preds := make([]float64, 0, n)
	acts := make([]float64, 0, n)
	subP := make([]measurement.Point, 0, n-1)
	subV := make([]float64, 0, n-1)
	for leave := 0; leave < n; leave++ {
		subP = subP[:0]
		subV = subV[:0]
		for i := 0; i < n; i++ {
			if i == leave {
				continue
			}
			subP = append(subP, points[i])
			subV = append(subV, values[i])
		}
		fn, err := fitHypothesisDirect(h, subP, subV, opts)
		if err != nil {
			return 0, false
		}
		preds = append(preds, fn.EvalAt(points[leave]))
		acts = append(acts, values[leave])
	}
	s, ok := mathutil.SMAPE(preds, acts)
	return s, ok
}

// selectBestDirect evaluates all hypotheses and returns the fitted model
// with the smallest cross-validated SMAPE (ties broken by fewer terms,
// then lower RSS).
func selectBestDirect(points []measurement.Point, values []float64, hyps []hypothesis, opts Options) (*Model, error) {
	type candidate struct {
		fn    *pmnf.Function
		smape float64
		rss   float64
		terms int
	}
	var cands []candidate
	for _, h := range hyps {
		smape, ok := crossValidateDirect(h, points, values, opts)
		if !ok {
			continue
		}
		fn, err := fitHypothesisDirect(h, points, values, opts)
		if err != nil {
			continue
		}
		preds := make([]float64, len(points))
		for i, p := range points {
			preds[i] = fn.EvalAt(p)
		}
		rss, _ := mathutil.RSS(preds, values)
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
	// Occam selection — see fitContext.selectBest for the rationale; the
	// two implementations must stay in lockstep.
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

	preds := make([]float64, len(points))
	for i, p := range points {
		preds[i] = best.fn.EvalAt(p)
	}
	r2, okR2 := mathutil.RSquared(preds, values)
	if !okR2 {
		r2 = math.NaN()
	}
	// Relative residual spread for prediction intervals.
	var rel []float64
	for i := range preds {
		if values[i] != 0 {
			rel = append(rel, (preds[i]-values[i])/values[i])
		}
	}
	relStd, _ := mathutil.StdDev(rel)

	model := &Model{
		Function:       best.fn,
		SMAPE:          best.smape,
		RSS:            best.rss,
		R2:             r2,
		RelResidualStd: relStd,
		Points:         points,
		Actual:         append([]float64(nil), values...),
	}
	return model, nil
}
