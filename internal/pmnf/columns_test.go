package pmnf

import (
	"fmt"
	"math"
	"testing"

	"extradeep/internal/propcheck"
)

// The column engine's contract is bitwise: every column evaluation must
// reproduce the corresponding scalar evaluation path exactly, because the
// modeling layer's bit-identical-selection guarantee rests on it. These
// tests compare Float64bits, not approximate values.

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func testRows() [][]float64 {
	return [][]float64{{2, 32}, {4, 64}, {8, 128}, {16, 256}, {32, 512}}
}

func TestFactorColumnMatchesScalarEval(t *testing.T) {
	rows := testRows()
	factors := []Factor{
		{Param: 0, PolyExp: 1},
		{Param: 0, PolyExp: 0.5, LogExp: 1},
		{Param: 0, PolyExp: 2.0 / 3, LogExp: 2},
		{Param: 0, PolyExp: -1},
		{Param: 1, PolyExp: 1.25},
		{Param: 1, PolyExp: 0, LogExp: 1},
	}
	for _, f := range factors {
		col := FactorColumn(rows, f)
		if len(col) != len(rows) {
			t.Fatalf("%v: column length %d, want %d", f, len(col), len(rows))
		}
		for r, row := range rows {
			want := f.Eval(row[f.Param])
			if !bitsEqual(col[r], want) {
				t.Fatalf("%v row %d: column %x, scalar %x", f, r, math.Float64bits(col[r]), math.Float64bits(want))
			}
		}
	}
}

func TestFactorColumnOutOfRangeIsNaN(t *testing.T) {
	rows := [][]float64{{2}, {4}, {8}}
	for _, f := range []Factor{{Param: 1, PolyExp: 1}, {Param: -1, PolyExp: 1}} {
		for r, v := range FactorColumn(rows, f) {
			if !math.IsNaN(v) {
				t.Fatalf("param %d row %d: got %g, want NaN", f.Param, r, v)
			}
		}
	}
}

// termColumn is a term's basis column as the modeling engine assembles
// it: TermProduct over the term's factor columns.
func termColumn(rows [][]float64, t Term, dst []float64) []float64 {
	facs := make([][]float64, len(t.Factors))
	for i, f := range t.Factors {
		facs[i] = FactorColumn(rows, f)
	}
	return TermProduct(len(rows), facs, dst)
}

func TestTermColumnMatchesEvalBasis(t *testing.T) {
	rows := testRows()
	terms := []Term{
		{Factors: []Factor{{Param: 0, PolyExp: 1.5, LogExp: 1}}},
		{Factors: []Factor{{Param: 0, PolyExp: 0.75}, {Param: 1, PolyExp: 1.0 / 3, LogExp: 2}}},
		{Factors: []Factor{{Param: 1, PolyExp: 2}, {Param: 0, PolyExp: -0.5, LogExp: 1}, {Param: 0, PolyExp: 0.25}}},
		{Factors: nil}, // empty product: the constant basis 1.0
	}
	var dst []float64
	for _, term := range terms {
		dst = termColumn(rows, term, dst)
		for r, row := range rows {
			want := term.EvalBasis(row)
			if !bitsEqual(dst[r], want) {
				t.Fatalf("%s row %d: column %x (%g), scalar %x (%g)",
					term.Render(nil), r, math.Float64bits(dst[r]), dst[r], math.Float64bits(want), want)
			}
		}
	}
}

func TestTermProductReusesDst(t *testing.T) {
	facs := [][]float64{{2, 3, 4}, {5, 6, 7}}
	dst := make([]float64, 3)
	out := TermProduct(3, facs, dst)
	if &out[0] != &dst[0] {
		t.Fatal("TermProduct allocated despite sufficient dst capacity")
	}
	want := []float64{10, 18, 28}
	for i := range want {
		if !bitsEqual(out[i], want[i]) {
			t.Fatalf("row %d: %g, want %g", i, out[i], want[i])
		}
	}
}

// TestPropColumnsBitIdentical sweeps randomized functions and rows: the
// column functions must agree with the scalar evaluation paths bit for bit on
// arbitrary (positive-domain) inputs, including fractional and negative
// exponents where Pow/Log rounding makes operand order observable.
func TestPropColumnsBitIdentical(t *testing.T) {
	type colCase struct {
		fn   *Function
		rows [][]float64
	}
	exps := []float64{-1, -0.5, 0, 0.25, 1.0 / 3, 0.5, 1, 1.5, 2, 7.0 / 3}
	gen := propcheck.Gen[colCase]{
		Generate: func(r *propcheck.Rand) colCase {
			arity := r.IntRange(1, 3)
			n := r.IntRange(3, 7)
			rows := make([][]float64, n)
			for i := range rows {
				row := make([]float64, arity)
				for j := range row {
					row[j] = r.Float64Range(1.1, 512)
				}
				rows[i] = row
			}
			fn := &Function{Constant: r.NormFloat64() * 10}
			for k, nt := 0, r.IntRange(1, 3); k < nt; k++ {
				var factors []Factor
				for f, nf := 0, r.IntRange(1, 2); f < nf; f++ {
					factors = append(factors, Factor{
						Param:   r.Intn(arity),
						PolyExp: exps[r.Intn(len(exps))],
						LogExp:  r.IntRange(0, 2),
					})
				}
				fn.Terms = append(fn.Terms, Term{Coefficient: r.NormFloat64() * 5, Factors: factors})
			}
			return colCase{fn: fn, rows: rows}
		},
		Describe: func(c colCase) string {
			return fmt.Sprintf("{%s over %d rows}", c.fn.String(), len(c.rows))
		},
	}
	propcheck.Check(t, gen, func(c colCase) error {
		var dst []float64
		for _, term := range c.fn.Terms {
			dst = termColumn(c.rows, term, dst)
			for r, row := range c.rows {
				if want := term.EvalBasis(row); !bitsEqual(dst[r], want) {
					return fmt.Errorf("term column row %d: %x != scalar %x", r, math.Float64bits(dst[r]), math.Float64bits(want))
				}
			}
		}
		return nil
	})
}
