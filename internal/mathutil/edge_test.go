package mathutil

import (
	"errors"
	"math"
	"testing"
)

// These tests pin down the behavior of the numerical kernel on the inputs
// that corrupt performance models silently: empty slices, NaN, and ±Inf.

func TestEmptyInputs(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %v, want 0", got)
	}
	if _, ok := Mean(nil); ok {
		t.Error("Mean(nil) reported ok")
	}
	if _, ok := Median(nil); ok {
		t.Error("Median(nil) reported ok")
	}
	if _, ok := SMAPE(nil, nil); ok {
		t.Error("SMAPE(nil, nil) reported ok")
	}
	if _, ok := RSS(nil, nil); ok {
		t.Error("RSS(nil, nil) reported ok")
	}
	if _, ok := RSquared(nil, nil); ok {
		t.Error("RSquared(nil, nil) reported ok")
	}
}

func TestTooFewElements(t *testing.T) {
	// Variance and friends need at least two samples.
	one := []float64{3.5}
	if _, ok := Variance(one); ok {
		t.Error("Variance of one element reported ok")
	}
	if _, ok := StdDev(one); ok {
		t.Error("StdDev of one element reported ok")
	}
	if _, ok := CoefficientOfVariation(one); ok {
		t.Error("CoefficientOfVariation of one element reported ok")
	}
}

func TestMismatchedLengths(t *testing.T) {
	p, a := []float64{1, 2}, []float64{1}
	if _, ok := SMAPE(p, a); ok {
		t.Error("SMAPE with mismatched lengths reported ok")
	}
	if _, ok := RSS(p, a); ok {
		t.Error("RSS with mismatched lengths reported ok")
	}
	if _, ok := RSquared(p, a); ok {
		t.Error("RSquared with mismatched lengths reported ok")
	}
}

func TestNaNPropagation(t *testing.T) {
	nan := math.NaN()
	if got := Sum([]float64{1, nan, 2}); !math.IsNaN(got) {
		t.Errorf("Sum with a NaN = %v, want NaN", got)
	}
	m, ok := Mean([]float64{1, nan})
	if !ok || !math.IsNaN(m) {
		t.Errorf("Mean with a NaN = (%v, %v), want (NaN, true)", m, ok)
	}
	if !math.IsNaN(NormalQuantile(nan)) {
		t.Error("NormalQuantile(NaN) is not NaN")
	}
	if !math.IsNaN(StudentTQuantile(nan, 5)) {
		t.Error("StudentTQuantile(NaN, 5) is not NaN")
	}
}

func TestInfinityHandling(t *testing.T) {
	inf := math.Inf(1)
	if got := AbsPercentError(1, 0); !math.IsInf(got, 1) {
		t.Errorf("AbsPercentError(1, 0) = %v, want +Inf", got)
	}
	if got := AbsPercentError(0, 0); got != 0 {
		t.Errorf("AbsPercentError(0, 0) = %v, want 0", got)
	}
	// The median of an odd-length sample shrugs off a single Inf outlier.
	med, ok := Median([]float64{1, inf, 2})
	if !ok || !Close(med, 2) {
		t.Errorf("Median(1, +Inf, 2) = (%v, %v), want (2, true)", med, ok)
	}
	// The even-length branch halves before adding, so two near-max values
	// must not overflow to +Inf.
	big := math.MaxFloat64
	med, ok = Median([]float64{big, big})
	if !ok || math.IsInf(med, 1) || !Close(med, big) {
		t.Errorf("Median(MaxFloat64, MaxFloat64) = (%v, %v), want (MaxFloat64, true)", med, ok)
	}
	if got := NormalQuantile(0); !math.IsInf(got, -1) {
		t.Errorf("NormalQuantile(0) = %v, want -Inf", got)
	}
	if got := NormalQuantile(1); !math.IsInf(got, 1) {
		t.Errorf("NormalQuantile(1) = %v, want +Inf", got)
	}
}

func TestErrorMetricDegenerateInputs(t *testing.T) {
	// SMAPE defines two exact zeros as zero error.
	if v, ok := SMAPE([]float64{0}, []float64{0}); !ok || v != 0 {
		t.Errorf("SMAPE(0, 0) = (%v, %v), want (0, true)", v, ok)
	}
	// R² is undefined when the actuals have no variance.
	if _, ok := RSquared([]float64{1, 2}, []float64{5, 5}); ok {
		t.Error("RSquared with constant actuals reported ok")
	}
}

func TestLog2Domain(t *testing.T) {
	if !math.IsNaN(Log2(0)) {
		t.Error("Log2(0) is not NaN")
	}
	if !math.IsNaN(Log2(-4)) {
		t.Error("Log2(-4) is not NaN")
	}
	if got := Log2(8); !Close(got, 3) {
		t.Errorf("Log2(8) = %v, want 3", got)
	}
}

func TestAlmostEqualSpecialValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	if AlmostEqual(nan, nan, 1) {
		t.Error("NaN compared almost-equal to NaN; poisoned values must never pass")
	}
	if AlmostEqual(nan, 0, math.MaxFloat64) {
		t.Error("NaN compared almost-equal to 0 under a huge tolerance")
	}
	if !AlmostEqual(inf, inf, 0) {
		t.Error("+Inf is not almost-equal to itself")
	}
	if AlmostEqual(inf, math.Inf(-1), math.MaxFloat64) {
		t.Error("+Inf compared almost-equal to -Inf")
	}
	if !Close(1e15, 1e15+1) {
		t.Error("Close rejected a 1-ulp-scale difference at 1e15")
	}
	if Close(1, 1.001) {
		t.Error("Close accepted a 0.1% difference near 1")
	}
}

func TestSolveLinearSystemDegenerateInputs(t *testing.T) {
	if _, err := SolveLinearSystem(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty system: err = %v, want ErrEmpty", err)
	}
	if _, err := SolveLinearSystem([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("dimension mismatch not rejected")
	}
	if _, err := SolveLinearSystem([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix not rejected")
	}
	if _, err := SolveLinearSystem([][]float64{{1, 2}, {2, 4}}, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("collinear rows: err = %v, want ErrSingular", err)
	}
	if _, err := SolveLinearSystem([][]float64{{0, 0}, {1, 1}}, []float64{0, 1}); !errors.Is(err, ErrSingular) {
		t.Errorf("zero row: err = %v, want ErrSingular", err)
	}
	// A NaN-filled row has no usable scale and must surface as singular
	// rather than producing a NaN "solution".
	if _, err := SolveLinearSystem([][]float64{{math.NaN()}}, []float64{1}); !errors.Is(err, ErrSingular) {
		t.Errorf("NaN matrix: err = %v, want ErrSingular", err)
	}
}

func TestLeastSquaresDegenerateInputs(t *testing.T) {
	if _, err := LeastSquares(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty design: err = %v, want ErrEmpty", err)
	}
	if _, err := LeastSquares([][]float64{{}}, []float64{1}); !errors.Is(err, ErrEmpty) {
		t.Errorf("zero-column design: err = %v, want ErrEmpty", err)
	}
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("under-determined system not rejected")
	}
	if _, err := LeastSquares([][]float64{{1}, {2}}, []float64{1}); err == nil {
		t.Error("row/observation mismatch not rejected")
	}
	if _, err := LeastSquares([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("ragged design matrix not rejected")
	}
}

func TestStudentTQuantileDomain(t *testing.T) {
	if !math.IsNaN(StudentTQuantile(0.5, 0)) {
		t.Error("df = 0 did not yield NaN")
	}
	if !math.IsNaN(StudentTQuantile(0, 5)) {
		t.Error("q = 0 did not yield NaN")
	}
	if !math.IsNaN(StudentTQuantile(1, 5)) {
		t.Error("q = 1 did not yield NaN")
	}
	// The median of any t distribution is 0.
	if got := StudentTQuantile(0.5, 7); !AlmostEqual(got, 0, 1e-12) {
		t.Errorf("StudentTQuantile(0.5, 7) = %v, want 0", got)
	}
}
