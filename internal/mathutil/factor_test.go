package mathutil

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"extradeep/internal/propcheck"
)

// referenceSolve is the elimination the linear solver ran before it was
// split into Factor and Apply, frozen: the augmented system [A | b]
// eliminated as one, row slices swapped, then back substitution. The
// split must reproduce it bit for bit, errors included.
func referenceSolve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, ErrEmpty
	}
	if len(b) != n {
		return nil, errors.New("dimension mismatch")
	}
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, errors.New("ragged")
		}
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	scale := make([]float64, n)
	for i := range m {
		for j := 0; j < n; j++ {
			if v := math.Abs(m[i][j]); v > scale[i] {
				scale[i] = v
			}
		}
		if scale[i] == 0 {
			return nil, ErrSingular
		}
	}
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(m[col][col]) / scale[col]
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]) / scale[r]; v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-13 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		scale[col], scale[pivot] = scale[pivot], scale[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * x[j]
		}
		if m[i][i] == 0 {
			return nil, ErrSingular
		}
		x[i] = sum / m[i][i]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrSingular
		}
	}
	return x, nil
}

// sameSolve reports the first difference between a solve and the
// reference's: a different singular verdict, or different solution bits.
func sameSolve(label string, got []float64, gotErr error, want []float64, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrSingular) != errors.Is(wantErr, ErrSingular) {
		return fmt.Errorf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: x[%d] = %x (%g), reference %x (%g)", label, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
	return nil
}

// factorCase is one matrix of the property and the right-hand sides it is
// solved for.
type factorCase struct {
	kind string
	a    [][]float64
	bs   [][]float64
}

// factorCaseGen draws the systems of TestPropFactorApplyMatchesReference:
// random and diagonally dominant matrices, ill-conditioned normal
// matrices of nearly collinear columns (the fit engine's XᵀX), matrices
// whose smallest scaled pivot sits just either side of the 1e-13 cut, a
// zero row, a −0 multiplier, Inf and NaN entries and a singular matrix,
// each with right-hand sides of mixed magnitudes, ones that overflow the
// solution to ±Inf, and ones carrying NaN or ±Inf.
func factorCaseGen() propcheck.Gen[factorCase] {
	square := func(n int, f func(i, j int) float64) [][]float64 {
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = f(i, j)
			}
		}
		return a
	}
	negZero := math.Copysign(0, -1)
	fixed := map[string][][]float64{
		"zero-row":        {{1, 2, 3}, {0, 0, 0}, {4, 5, 6}},
		"zero-multiplier": {{4, 1, 0}, {0, 3, 1}, {negZero, 1, 2}},
		"singular":        {{1, 2}, {2, 4}},
		"inf-entry":       {{math.Inf(1), 1}, {1, 2}},
		"nan-entry":       {{math.NaN(), 1}, {1, 2}},
		"pivoting":        {{1e-20, 1, 0}, {1, 1e-20, 2}, {0, 2, 1e-20}},
	}
	kinds := []string{"random", "dominant", "ill-conditioned", "near-cut", "zero-row", "zero-multiplier", "singular", "inf-entry", "nan-entry", "pivoting"}
	return propcheck.Gen[factorCase]{
		Generate: func(r *propcheck.Rand) factorCase {
			c := factorCase{kind: kinds[r.Intn(len(kinds))]}
			switch c.kind {
			case "random":
				c.a = square(r.IntRange(1, 5), func(i, j int) float64 { return r.NormFloat64() * 10 })
			case "dominant":
				n := r.IntRange(1, 5)
				c.a = square(n, func(i, j int) float64 {
					v := r.NormFloat64() * 10
					if i == j {
						v += float64(n) * 5
					}
					return v
				})
			case "ill-conditioned":
				// XᵀX of a constant column and columns that are nearly
				// multiples of each other, as collinear PMNF shapes give.
				cols, rows := r.IntRange(2, 3), r.IntRange(5, 24)
				eps := math.Pow(10, -float64(r.Intn(12)))
				x := make([][]float64, rows)
				for i := range x {
					x[i] = make([]float64, cols)
					x[i][0] = 1
					for k := 1; k < cols; k++ {
						x[i][k] = math.Pow(2, float64(i+1)) * (1 + float64(k)*eps*r.NormFloat64())
					}
				}
				c.a = square(cols, func(i, j int) float64 {
					s := 0.0
					for _, row := range x {
						s += row[i] * row[j]
					}
					return s
				})
			case "near-cut":
				// The smallest scaled pivot of [[1, 1], [1, 1+d]] is
				// d/(1+d): around the singular cut.
				d := []float64{1.01e-13, 1e-13, 0.99e-13, 2e-13, 5e-14}[r.Intn(5)]
				c.a = [][]float64{{1, 1}, {1, 1 + d}}
			default:
				c.a = fixed[c.kind]
			}
			n := len(c.a)
			for k := 0; k < 3; k++ {
				b := make([]float64, n)
				for i := range b {
					b[i] = r.NormFloat64() * math.Pow(10, float64(r.IntRange(-4, 4)))
				}
				c.bs = append(c.bs, b)
			}
			huge, special := make([]float64, n), make([]float64, n)
			for i := range huge {
				huge[i] = math.MaxFloat64 * (1 - 2*float64(i%2))
				special[i] = 1
			}
			special[r.Intn(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
			c.bs = append(c.bs, huge, special)
			if c.kind == "zero-multiplier" {
				// Row 2's multiplier at column 0 is −0: skipping it keeps
				// the right-hand side's −0, subtracting −0·1 would make it
				// +0.
				c.bs = append(c.bs, []float64{1, 0, negZero})
			}
			return c
		},
		Describe: func(c factorCase) string { return fmt.Sprintf("%s A=%v b=%v", c.kind, c.a, c.bs) },
	}
}

// TestPropFactorApplyMatchesReference factors each matrix once and
// applies the elimination to several right-hand sides: every solution,
// and every error's singular verdict, must equal the frozen reference
// elimination's, and so must a solve into one Elimination reused across
// every case.
func TestPropFactorApplyMatchesReference(t *testing.T) {
	var reused Elimination
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 400}, factorCaseGen(), func(c factorCase) error {
		var e Elimination
		ferr := e.Factor(c.a)
		for _, b := range c.bs {
			want, wantErr := referenceSolve(c.a, b)
			got, gotErr := e.Apply(append([]float64(nil), b...))
			if ferr != nil && gotErr != ferr {
				return fmt.Errorf("%s: Apply after a failed Factor returned %v, want %v", c.kind, gotErr, ferr)
			}
			if err := sameSolve(c.kind+" factor+apply", got, gotErr, want, wantErr); err != nil {
				return err
			}
			got, gotErr = solveInto(&reused, c.a, b)
			if err := sameSolve(c.kind+" solve", got, gotErr, want, wantErr); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestEliminationCarveSharesOneSlab carves several eliminations from one
// slab: factoring them allocates nothing, and each keeps its own
// factorization.
func TestEliminationCarveSharesOneSlab(t *testing.T) {
	as := [][][]float64{{{2, 1}, {1, 3}}, {{4, 1}, {2, 5}}, {{1, 7}, {3, 2}}}
	floats, ints := EliminationSize(2)
	fs, is := make([]float64, len(as)*floats), make([]int, len(as)*ints)
	es := make([]Elimination, len(as))
	rest, irest := fs, is
	for i := range es {
		rest, irest = es[i].Carve(2, rest, irest)
	}
	if len(rest) != 0 || len(irest) != 0 {
		t.Fatalf("%d floats and %d ints left over", len(rest), len(irest))
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i := range es {
			if err := es[i].Factor(as[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("factoring carved eliminations allocates %.0f times", allocs)
	}
	for i, a := range as {
		b := []float64{1, 2}
		want, wantErr := referenceSolve(a, b)
		got, err := es[i].Apply(append([]float64(nil), b...))
		if err := sameSolve("carved", got, err, want, wantErr); err != nil {
			t.Error(err)
		}
	}
}
