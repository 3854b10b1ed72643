package pmnf

import "math"

// ColumnSet caches per-configuration basis columns for a fixed set of
// measurement rows. It is the evaluation substrate of the modeling
// layer's design-matrix engine: every Factor is evaluated exactly once
// per configuration, no matter how many hypotheses (or cross-validation
// folds) reference it afterwards.
//
// All column evaluations replicate the scalar evaluation paths of this
// package bit for bit:
//
//   - FactorColumn[r] == f.Eval(rows[r][f.Param])
//   - TermColumn[r]   == t.EvalBasis(rows[r])
//
// The products are carried out in the same operand order as the scalar
// code, so a fit assembled from cached columns selects exactly the model
// a direct evaluation would (floating-point multiplication is not
// associative; the order is part of the contract and pinned by tests).
//
// A ColumnSet is not safe for concurrent use: the factor cache fills
// lazily. The modeling layer builds one per fit task and keeps it
// confined to that task's goroutine.
type ColumnSet struct {
	rows    [][]float64
	factors map[Factor][]float64
	shared  map[Factor][]float64
}

// NewColumnSet returns a column cache over the given configuration rows.
// The rows are referenced, not copied; callers must not mutate them while
// the set is in use.
func NewColumnSet(rows [][]float64) *ColumnSet {
	return &ColumnSet{rows: rows, factors: make(map[Factor][]float64, 64)}
}

// NewColumnSetShared returns a column cache pre-seeded with externally
// computed factor columns for the same rows. The shared map is consulted
// read-only and may be referenced by any number of sets concurrently
// (it must never be mutated after construction); factors outside it
// still fill the set's own lazy cache. This lets fit tasks over the same
// measurement points — the common case inside one campaign — evaluate
// each basis factor once per process instead of once per task.
func NewColumnSetShared(rows [][]float64, shared map[Factor][]float64) *ColumnSet {
	return &ColumnSet{rows: rows, factors: make(map[Factor][]float64, 8), shared: shared}
}

// Len returns the number of configuration rows.
func (cs *ColumnSet) Len() int { return len(cs.rows) }

// Row returns the r-th configuration row.
func (cs *ColumnSet) Row(r int) []float64 { return cs.rows[r] }

// FactorColumn returns the cached column of f evaluated at every row,
// computing and caching it on first use. Entries where f.Param is outside
// the row's arity are NaN, mirroring Term.EvalBasis's bounds behaviour.
// The returned slice is owned by the cache — callers must not modify it.
func (cs *ColumnSet) FactorColumn(f Factor) []float64 {
	if col, ok := cs.shared[f]; ok {
		return col
	}
	if col, ok := cs.factors[f]; ok {
		return col
	}
	col := make([]float64, len(cs.rows))
	for r, row := range cs.rows {
		if f.Param < 0 || f.Param >= len(row) {
			col[r] = math.NaN()
			continue
		}
		col[r] = f.Eval(row[f.Param])
	}
	cs.factors[f] = col
	return col
}

// TermColumn fills dst with the term's basis evaluated at every row —
// bit-identical to t.EvalBasis(rows[r]) — and returns it. dst is grown as
// needed; passing a previous result back in avoids the allocation.
func (cs *ColumnSet) TermColumn(t Term, dst []float64) []float64 {
	facs := make([][]float64, len(t.Factors))
	for i, f := range t.Factors {
		facs[i] = cs.FactorColumn(f)
	}
	return TermProduct(len(cs.rows), facs, dst)
}

// TermProduct fills dst with the row-wise product of the factor columns —
// the term basis — in factor order, starting from 1.0, exactly as
// Term.EvalBasis multiplies scalar factor values. It is the one place the
// column engine's product order lives; TermColumn and the modeling
// layer's per-hypothesis column assembly both route through it. dst is
// grown as needed.
func TermProduct(n int, facs [][]float64, dst []float64) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for r := range dst {
		dst[r] = 1.0
	}
	for _, col := range facs {
		for r := range dst {
			dst[r] *= col[r]
		}
	}
	return dst
}
