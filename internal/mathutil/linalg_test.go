package mathutil

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestSolveLinearSystem2x2(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinearSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(x[0], 1, 1e-10) || !AlmostEqual(x[1], 3, 1e-10) {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveLinearSystemIdentity(t *testing.T) {
	a := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	b := []float64{7, -2, 0.5}
	x, err := SolveLinearSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !AlmostEqual(x[i], b[i], 1e-12) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], b[i])
		}
	}
}

func TestSolveLinearSystemSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{3, 6}
	if _, err := SolveLinearSystem(a, b); !errors.Is(err, ErrSingular) {
		t.Errorf("singular system: err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearSystemNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := SolveLinearSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(x[0], 3, 1e-12) || !AlmostEqual(x[1], 2, 1e-12) {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSolveLinearSystemDimensionMismatch(t *testing.T) {
	if _, err := SolveLinearSystem([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := SolveLinearSystem(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := SolveLinearSystem([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestSolveLinearSystemDoesNotMutate(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	if _, err := SolveLinearSystem(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[1][1] != 3 || b[0] != 5 {
		t.Error("SolveLinearSystem mutated its inputs")
	}
}

// Property: solving A·x = A·x0 recovers x0 for random well-conditioned A.
func TestSolveLinearSystemRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) + 1 // diagonal dominance → well-conditioned
		}
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.NormFloat64() * 10
		}
		b := make([]float64, n)
		for i := range b {
			for j := range x0 {
				b[i] += a[i][j] * x0[j]
			}
		}
		x, err := SolveLinearSystem(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if !AlmostEqual(x[i], x0[i], 1e-6*(1+math.Abs(x0[i]))) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], x0[i])
			}
		}
	}
}

func TestLeastSquaresExactLine(t *testing.T) {
	// y = 3 + 2x on four points: exact recovery expected.
	x := [][]float64{{1, 1}, {1, 2}, {1, 3}, {1, 4}}
	y := []float64{5, 7, 9, 11}
	c, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(c[0], 3, 1e-9) || !AlmostEqual(c[1], 2, 1e-9) {
		t.Errorf("coefficients = %v, want [3 2]", c)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noise-free quadratic through 6 points with 3 basis functions.
	var x [][]float64
	var y []float64
	for i := 1; i <= 6; i++ {
		v := float64(i)
		x = append(x, []float64{1, v, v * v})
		y = append(y, 1+0.5*v+0.25*v*v)
	}
	c, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, 0.25}
	for i := range want {
		if !AlmostEqual(c[i], want[i], 1e-7) {
			t.Errorf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	x := [][]float64{{1, 2, 3}}
	y := []float64{1}
	if _, err := LeastSquares(x, y); err == nil {
		t.Error("under-determined system accepted")
	}
}

func TestLeastSquaresCollinear(t *testing.T) {
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	y := []float64{1, 2, 3}
	if _, err := LeastSquares(x, y); !errors.Is(err, ErrSingular) {
		t.Errorf("collinear basis: err = %v, want ErrSingular", err)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The residual of a least-squares fit must be orthogonal to the column
	// space: Xᵀ(y − X·c) ≈ 0.
	rng := rand.New(rand.NewSource(5))
	rows, cols := 12, 3
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		x[i] = make([]float64, cols)
		x[i][0] = 1
		for j := 1; j < cols; j++ {
			x[i][j] = rng.Float64() * 10
		}
		y[i] = rng.NormFloat64() * 5
	}
	c, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < cols; j++ {
		var dot float64
		for i := 0; i < rows; i++ {
			pred := 0.0
			for k := 0; k < cols; k++ {
				pred += x[i][k] * c[k]
			}
			dot += x[i][j] * (y[i] - pred)
		}
		if math.Abs(dot) > 1e-6 {
			t.Errorf("residual not orthogonal to column %d: dot = %v", j, dot)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ q, want float64 }{
		{0.5, 0},
		{0.975, 1.959963985},
		{0.025, -1.959963985},
		{0.84134474, 0.9999999}, // Φ(1) ≈ 0.8413
		{0.99, 2.326347874},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.q); !AlmostEqual(got, c.want, 1e-4) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("q=0 should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("q=1 should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("out-of-range q should be NaN")
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	for q := 0.01; q < 0.5; q += 0.01 {
		lo, hi := NormalQuantile(q), NormalQuantile(1-q)
		if !AlmostEqual(lo, -hi, 1e-8) {
			t.Errorf("asymmetric at q=%v: %v vs %v", q, lo, hi)
		}
	}
}

func TestStudentTQuantileDF1IsCauchy(t *testing.T) {
	// t(1) is the Cauchy distribution: 0.75 quantile is exactly 1.
	if got := StudentTQuantile(0.75, 1); !AlmostEqual(got, 1, 1e-9) {
		t.Errorf("t(1) q0.75 = %v, want 1", got)
	}
}

func TestStudentTQuantileDF2(t *testing.T) {
	// Known value: t(2) 0.975 quantile = 4.30265.
	if got := StudentTQuantile(0.975, 2); !AlmostEqual(got, 4.30265, 1e-3) {
		t.Errorf("t(2) q0.975 = %v, want 4.30265", got)
	}
}

func TestStudentTQuantileKnownValues(t *testing.T) {
	cases := []struct {
		q    float64
		df   int
		want float64
		tol  float64
	}{
		{0.975, 4, 2.776445, 5e-3},
		{0.975, 10, 2.228139, 2e-3},
		{0.975, 30, 2.042272, 1e-3},
		{0.95, 5, 2.015048, 5e-3},
	}
	for _, c := range cases {
		if got := StudentTQuantile(c.q, c.df); !AlmostEqual(got, c.want, c.tol) {
			t.Errorf("t(%d) q%v = %v, want %v", c.df, c.q, got, c.want)
		}
	}
}

func TestStudentTQuantileConvergesToNormal(t *testing.T) {
	z := NormalQuantile(0.975)
	tq := StudentTQuantile(0.975, 10_000)
	if !AlmostEqual(z, tq, 1e-3) {
		t.Errorf("t(10000) = %v should approach z = %v", tq, z)
	}
}

func TestStudentTQuantileInvalid(t *testing.T) {
	if !math.IsNaN(StudentTQuantile(0.5, 0)) {
		t.Error("df=0 accepted")
	}
	if !math.IsNaN(StudentTQuantile(0, 5)) || !math.IsNaN(StudentTQuantile(1, 5)) {
		t.Error("boundary q accepted")
	}
}

func TestStudentTQuantileMedianIsZero(t *testing.T) {
	for df := 1; df <= 50; df += 7 {
		if got := StudentTQuantile(0.5, df); !AlmostEqual(got, 0, 1e-9) {
			t.Errorf("t(%d) median = %v, want 0", df, got)
		}
	}
}
