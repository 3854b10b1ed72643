package pmnf

import "math"

// The column functions below are the evaluation substrate of the
// modeling layer's design-matrix engine: a factor is evaluated once per
// configuration into a column, and a term's basis is the row-wise
// product of its factor columns. Both replicate the scalar evaluation
// paths of this package bit for bit:
//
//   - FactorColumn(rows, f)[r] == f.Eval(rows[r][f.Param])
//   - TermProduct(len(rows), the columns of t's factors, dst)[r] ==
//     t.EvalBasis(rows[r])
//
// The products are carried out in the same operand order as the scalar
// code, so a fit assembled from columns selects exactly the model a
// direct evaluation would (floating-point multiplication is not
// associative; the order is part of the contract and pinned by tests).

// FactorColumn returns f evaluated at every row, in a new slice. Entries
// where f.Param is outside the row's arity are NaN, mirroring
// Term.EvalBasis's bounds behaviour.
func FactorColumn(rows [][]float64, f Factor) []float64 {
	col := make([]float64, len(rows))
	for r, row := range rows {
		if f.Param < 0 || f.Param >= len(row) {
			col[r] = math.NaN()
			continue
		}
		col[r] = f.Eval(row[f.Param])
	}
	return col
}

// TermProduct fills dst with the row-wise product of the factor columns —
// the term basis — in factor order, starting from 1.0, exactly as
// Term.EvalBasis multiplies scalar factor values. It is the one place the
// column engine's product order lives. dst is grown as needed.
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
