// Package helpers is the cold support package of the allocloop fixture:
// nothing here is a hot path, so its allocating helpers are never
// findings, not even when a hot loop calls them.
package helpers

// EvalTerm evaluates one term into a fresh result slice. The allocation
// is laundered through newBuf, one more frame down, and a hot caller's
// call site stays silent.
func EvalTerm(row []float64) []float64 {
	out := newBuf(len(row))
	for i, v := range row {
		out[i] = v * v
	}
	return out
}

// newBuf is the root allocation site two frames below the hot loop. The
// make sits in the body's top-level return — the normal result path, not
// a cold early exit — so it is a site whenever the function is hot.
func newBuf(n int) []float64 {
	return make([]float64, n)
}

// Scratch allocates by design, with the reason recorded at the site by
// the suppression below.
func Scratch(n int) []float64 {
	//edlint:ignore allocloop scratch lives for the whole campaign; one call per task, never per iteration
	buf := make([]float64, n)
	return buf
}
