// Package modeling mirrors the fit engine's shape: it is loaded under an
// import path ending in internal/modeling, so every fitContext method is
// hot by the policed default set — no directive needed.
package modeling

import "fixture/internal/helpers"

// fitContext mirrors the engine's per-fit state; its methods match the
// "fitContext.*" entry of the policed default set.
type fitContext struct {
	rows [][]float64
	sums []float64
}

// fitOne calls the cold allocating helper per iteration: a negative
// control, because the perf family reports direct sites only.
func (fc *fitContext) fitOne() {
	for i, row := range fc.rows {
		term := helpers.EvalTerm(row) // laundered allocation, two frames down
		fc.sums[i] = term[0]
	}
}

// prepare keeps the plain intraprocedural positive: a direct make on
// every iteration of a hot loop.
func (fc *fitContext) prepare() {
	for i := range fc.rows {
		buf := make([]float64, 8) // direct per-iteration allocation
		fc.sums[i] = buf[0]
	}
}

// term is a value type holding a slice, like pmnf.Term.
type term struct {
	factors []float64
}

// wrap builds a struct value per iteration: the struct allocates
// nothing, but the slice literal inside it does, and is the site.
func (fc *fitContext) wrap() []term {
	out := make([]term, 0, len(fc.rows))
	for _, row := range fc.rows {
		out = append(out, term{factors: []float64{row[0]}}) // nested per-iteration allocation
	}
	return out
}

// recycle is built from the sanctioned amortized idioms — a cap-guarded
// grow and a [:0] reset-reuse append — and must stay silent.
func (fc *fitContext) recycle(scratch []float64) {
	for _, row := range fc.rows {
		if cap(scratch) < len(row) {
			scratch = make([]float64, len(row))
		}
		scratch = scratch[:0]
		scratch = append(scratch, row...)
		fc.sums[0] += scratch[0]
	}
}

// seed calls the helper whose allocation is suppressed at the source;
// like fitOne's call, this hot call site is not a finding.
func (fc *fitContext) seed() {
	for i := range fc.rows {
		fc.rows[i] = helpers.Scratch(4)
	}
}

// retune keeps a sanctioned direct allocation: the reason records the
// amortization argument at the site.
func (fc *fitContext) retune() {
	for i := range fc.rows {
		//edlint:ignore allocloop the retune table is rebuilt once per epoch, not per fit
		fc.rows[i] = make([]float64, 16)
	}
}

// coldSetup allocates per iteration with the exact prepare shape, but it
// is not designated hot: the perf family stays silent off the hot paths.
func coldSetup(n int) [][]float64 {
	rows := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, make([]float64, i+1))
	}
	return rows
}

// Campaign keeps every fixture function reachable so the type checker
// sees real uses.
func Campaign(n int) float64 {
	fc := &fitContext{rows: coldSetup(n), sums: make([]float64, n)}
	fc.prepare()
	_ = fc.wrap()
	fc.fitOne()
	fc.recycle(nil)
	fc.seed()
	fc.retune()
	return fc.sums[0]
}

//edlint:hotpath this directive anchors no function declaration and must be reported as stray
var hotLabel = "stray"
