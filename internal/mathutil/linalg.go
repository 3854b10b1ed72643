package mathutil

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution,
// e.g. when two basis functions of a PMNF hypothesis are collinear on the
// given measurement points.
var ErrSingular = errors.New("mathutil: singular or ill-conditioned system")

// SolveLinearSystem solves A·x = b in place of nothing: it copies its inputs,
// runs Gaussian elimination with scaled partial pivoting, and returns x.
// A must be square with len(A) == len(b).
func SolveLinearSystem(a [][]float64, b []float64) ([]float64, error) {
	return SolveLinearSystemInto(a, b, nil)
}

// SolveWorkspace holds the scratch buffers of SolveLinearSystemInto so
// repeated small solves (the PMNF fit engine issues one per
// cross-validation fold per hypothesis) reuse memory instead of
// allocating. The zero value is ready to use. A workspace is not safe
// for concurrent use.
type SolveWorkspace struct {
	elim Elimination
	x    []float64
}

// SolveLinearSystemInto is SolveLinearSystem with caller-owned scratch:
// the inputs are still copied (callers keep their data), but into the
// workspace's reusable buffers, and the returned solution aliases
// workspace memory — valid until the next solve on the same workspace.
// A nil workspace allocates fresh buffers, making the two functions
// interchangeable. The solve is Factor then Apply on the workspace's
// Elimination, so a caller that factors a matrix once and applies it to
// many right-hand sides gets exactly the bits of solving each system
// here.
func SolveLinearSystemInto(a [][]float64, b []float64, ws *SolveWorkspace) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, ErrEmpty
	}
	if len(b) != n {
		return nil, fmt.Errorf("mathutil: dimension mismatch: %d equations, %d right-hand sides", n, len(b))
	}
	if ws == nil {
		ws = &SolveWorkspace{}
	}
	if err := ws.elim.Factor(a); err != nil {
		return nil, err
	}
	if cap(ws.x) < n {
		ws.x = make([]float64, n)
	}
	x := ws.x[:n]
	copy(x, b)
	return ws.elim.Apply(x)
}

// Elimination is the matrix half of a Gaussian elimination with scaled
// partial pivoting: the row scales, the pivot row of every column, the
// multipliers and the eliminated matrix U, or the verdict that the
// matrix is singular. Factor records it once; Apply then runs the same
// eliminations on a right-hand side, in the order the augmented system's
// column would have seen them, so factoring once and applying many times
// is bit-identical to solving each system whole. Apply only reads the
// elimination, so one factored matrix may be applied concurrently.
type Elimination struct {
	n     int
	u     []float64 // n×n row-major: the eliminated matrix, U on and above the diagonal
	mult  []float64 // mult[col*n+r]: the multiplier of row r at column col
	scale []float64 // row scales (factor-time scratch)
	piv   []int     // the row swapped into place at each column
	err   error
}

// EliminationSize returns the float64s and ints an Elimination of n
// equations keeps, for Carve.
func EliminationSize(n int) (floats, ints int) { return 2*n*n + n, n }

// Carve gives e storage for n-equation systems cut from the front of fs
// and is (see EliminationSize) and returns the rest, so many
// eliminations can share one slab. Factor allocates only when a system
// is larger than the storage it has.
func (e *Elimination) Carve(n int, fs []float64, is []int) ([]float64, []int) {
	e.u, fs = fs[:n*n:n*n], fs[n*n:]
	e.mult, fs = fs[:n*n:n*n], fs[n*n:]
	e.scale, fs = fs[:n:n], fs[n:]
	e.piv, is = is[:n:n], is[n:]
	return fs, is
}

// grow makes room for an n-equation system.
func (e *Elimination) grow(n int) {
	if cap(e.u) < n*n || cap(e.mult) < n*n || cap(e.scale) < n || cap(e.piv) < n {
		floats, ints := EliminationSize(n)
		e.Carve(n, make([]float64, floats), make([]int, ints))
	}
	e.n = n
	e.u, e.mult, e.scale, e.piv = e.u[:n*n], e.mult[:n*n], e.scale[:n], e.piv[:n]
}

// fail records err as the elimination's verdict and returns it.
func (e *Elimination) fail(err error) error {
	e.err = err
	return err
}

// Factor eliminates the square matrix a (it is copied, not modified). It
// returns ErrSingular when a row is all zeros, when no pivot's scaled
// magnitude reaches 1e-13, or when a pivot of U is zero; Apply then
// returns the same error.
func (e *Elimination) Factor(a [][]float64) error {
	n := len(a)
	e.err = nil
	if n == 0 {
		return e.fail(ErrEmpty)
	}
	e.grow(n)
	m := e.u
	for i := range a {
		if len(a[i]) != n {
			return e.fail(fmt.Errorf("mathutil: row %d has %d columns, want %d", i, len(a[i]), n))
		}
		copy(m[i*n:(i+1)*n], a[i])
	}
	// Row scale factors for scaled partial pivoting.
	scale := e.scale
	for i := 0; i < n; i++ {
		scale[i] = 0
		for j := 0; j < n; j++ {
			if v := math.Abs(m[i*n+j]); v > scale[i] {
				scale[i] = v
			}
		}
		if scale[i] == 0 {
			return e.fail(ErrSingular)
		}
	}
	for col := 0; col < n; col++ {
		// Pick the pivot row with the largest scaled magnitude.
		pivot := col
		best := math.Abs(m[col*n+col]) / scale[col]
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r*n+col]) / scale[r]; v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-13 {
			return e.fail(ErrSingular)
		}
		e.piv[col] = pivot
		if pivot != col {
			for c := 0; c < n; c++ {
				m[col*n+c], m[pivot*n+c] = m[pivot*n+c], m[col*n+c]
			}
			scale[col], scale[pivot] = scale[pivot], scale[col]
		}
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r*n+col] / m[col*n+col]
			e.mult[col*n+r] = f
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r*n+c] -= f * m[col*n+c]
			}
		}
	}
	for i := 0; i < n; i++ {
		if m[i*n+i] == 0 {
			return e.fail(ErrSingular)
		}
	}
	return nil
}

// Apply solves A·x = b in place for the matrix last factored: b holds
// the right-hand side on entry and the solution on return. It returns
// ErrSingular when the solution is not finite, and the factoring error
// when Factor failed.
func (e *Elimination) Apply(b []float64) ([]float64, error) {
	if e.err != nil {
		return nil, e.err
	}
	n := e.n
	if len(b) != n {
		return nil, fmt.Errorf("mathutil: dimension mismatch: %d equations, %d right-hand sides", n, len(b))
	}
	// The right-hand side's share of the elimination: the same swaps and
	// multipliers, column by column.
	for col := 0; col < n; col++ {
		if p := e.piv[col]; p != col {
			b[col], b[p] = b[p], b[col]
		}
		for r := col + 1; r < n; r++ {
			if f := e.mult[col*n+r]; f != 0 {
				b[r] -= f * b[col]
			}
		}
	}
	// Back substitution.
	m := e.u
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= m[i*n+j] * b[j]
		}
		b[i] = sum / m[i*n+i]
	}
	for _, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrSingular
		}
	}
	return b, nil
}

// LeastSquares fits coefficients c minimizing ‖X·c − y‖² where X is the
// design matrix (one row per observation, one column per basis function).
// It solves the normal equations XᵀX·c = Xᵀy; with the handful of basis
// functions a PMNF hypothesis uses (≤ 3), this is numerically adequate and
// avoids pulling in a full QR decomposition.
//
// It returns the coefficient vector, or an error when the system is
// under-determined (fewer rows than columns) or singular.
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	rows := len(x)
	if rows == 0 {
		return nil, ErrEmpty
	}
	cols := len(x[0])
	if cols == 0 {
		return nil, ErrEmpty
	}
	if len(y) != rows {
		return nil, fmt.Errorf("mathutil: %d rows but %d observations", rows, len(y))
	}
	if rows < cols {
		return nil, fmt.Errorf("mathutil: under-determined system: %d observations for %d coefficients", rows, cols)
	}
	// Build XᵀX and Xᵀy.
	xtx := make([][]float64, cols)
	xty := make([]float64, cols)
	for i := 0; i < cols; i++ {
		xtx[i] = make([]float64, cols)
	}
	for r := 0; r < rows; r++ {
		if len(x[r]) != cols {
			return nil, fmt.Errorf("mathutil: ragged design matrix at row %d", r)
		}
		for i := 0; i < cols; i++ {
			xi := x[r][i]
			xty[i] += xi * y[r]
			for j := i; j < cols; j++ {
				xtx[i][j] += xi * x[r][j]
			}
		}
	}
	for i := 0; i < cols; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	return SolveLinearSystem(xtx, xty)
}

// NormalQuantile returns the q-quantile of the standard normal distribution
// using the Acklam rational approximation (relative error < 1.15e-9).
// It returns ±Inf for q = 0 or 1 and NaN outside (0,1).
func NormalQuantile(q float64) float64 {
	switch {
	case math.IsNaN(q) || q < 0 || q > 1:
		return math.NaN()
	case q == 0:
		return math.Inf(-1)
	case q == 1:
		return math.Inf(1)
	}
	// Coefficients for the Acklam approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const lo, hi = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case q < lo:
		u := math.Sqrt(-2 * math.Log(q))
		x = (((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	case q > hi:
		u := math.Sqrt(-2 * math.Log(1-q))
		x = -(((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	default:
		u := q - 0.5
		t := u * u
		x = (((((a[0]*t+a[1])*t+a[2])*t+a[3])*t+a[4])*t + a[5]) * u /
			(((((b[0]*t+b[1])*t+b[2])*t+b[3])*t+b[4])*t + 1)
	}
	return x
}

// StudentTQuantile returns the q-quantile of Student's t distribution with
// df degrees of freedom, used for the 95% confidence bands around model
// predictions (Fig. 3 of the paper). It uses the Cornish–Fisher style
// expansion around the normal quantile, which is accurate to a few 1e-4 for
// df ≥ 3 — ample for plotting confidence intervals.
// It returns NaN for df < 1 or q outside (0,1).
func StudentTQuantile(q float64, df int) float64 {
	if df < 1 || math.IsNaN(q) || q <= 0 || q >= 1 {
		return math.NaN()
	}
	if df == 1 {
		// Cauchy distribution: exact quantile.
		return math.Tan(math.Pi * (q - 0.5))
	}
	if df == 2 {
		// Exact closed form for df = 2.
		alpha := 2*q - 1
		//edlint:ignore logdomain alpha = 2q-1 lies in (-1,1) by the q-range guard above, so 1-alpha² > 0
		return alpha * math.Sqrt(2/(1-alpha*alpha))
	}
	z := NormalQuantile(q)
	n := float64(df)
	z2 := z * z
	// Hill's asymptotic expansion.
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	return z + g1/n + g2/(n*n) + g3/(n*n*n) + g4/(n*n*n*n)
}
