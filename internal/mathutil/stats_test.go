package mathutil

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSum(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3.5}, 3.5},
		{"several", []float64{1, 2, 3, 4}, 10},
		{"negatives", []float64{-1, 1, -2, 2}, 0},
	}
	for _, c := range cases {
		if got := Sum(c.in); !Close(got, c.want) {
			t.Errorf("%s: Sum(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
}

func TestSumKahanPrecision(t *testing.T) {
	// 1e8 copies of 0.1 would drift badly with naive summation; use a
	// smaller but still demonstrative case.
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = 0.1
	}
	if got := Sum(xs); !AlmostEqual(got, 100000, 1e-6) {
		t.Errorf("Kahan Sum drifted: got %v, want 100000", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, ok := Mean(nil); ok {
		t.Error("Mean(nil) reported ok")
	}
}

func TestMean(t *testing.T) {
	got, ok := Mean([]float64{2, 4, 6})
	if !ok || !Close(got, 4) {
		t.Errorf("Mean = %v, ok=%v; want 4, true", got, ok)
	}
}

func TestMedianOdd(t *testing.T) {
	got, ok := Median([]float64{9, 1, 5})
	if !ok || !Close(got, 5) {
		t.Errorf("Median = %v, want 5", got)
	}
}

func TestMedianEven(t *testing.T) {
	got, ok := Median([]float64{4, 1, 3, 2})
	if !ok || !Close(got, 2.5) {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

func TestMedianEmpty(t *testing.T) {
	if _, ok := Median(nil); ok {
		t.Error("Median(nil) reported ok")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated its input: %v", xs)
	}
}

func TestMedianIsRobustToOutlier(t *testing.T) {
	base := []float64{10, 10, 10, 10, 1e9}
	got, _ := Median(base)
	if !Close(got, 10) {
		t.Errorf("Median with outlier = %v, want 10", got)
	}
}

// Property: the median always lies within [min, max] of the sample.
func TestMedianBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m, ok := Median(xs)
		if !ok {
			return false
		}
		return m >= slices.Min(xs) && m <= slices.Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the median is invariant under permutation of the sample.
func TestMedianPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		want, _ := Median(xs)
		shuffled := append([]float64(nil), xs...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, _ := Median(shuffled)
		if got != want {
			t.Fatalf("median changed under permutation: %v vs %v", got, want)
		}
	}
}

func TestVariance(t *testing.T) {
	v, ok := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !ok || !AlmostEqual(v, 4.571428571428571, 1e-12) {
		t.Errorf("Variance = %v, want ≈4.5714", v)
	}
}

func TestVarianceTooFew(t *testing.T) {
	if _, ok := Variance([]float64{1}); ok {
		t.Error("Variance of single element reported ok")
	}
}

func TestStdDevConstant(t *testing.T) {
	sd, ok := StdDev([]float64{3, 3, 3})
	if !ok || sd != 0 {
		t.Errorf("StdDev of constants = %v, want 0", sd)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	cv, ok := CoefficientOfVariation([]float64{90, 100, 110})
	if !ok || !AlmostEqual(cv, 0.1, 1e-12) {
		t.Errorf("CV = %v, want 0.1", cv)
	}
}

func TestCoefficientOfVariationZeroMean(t *testing.T) {
	if _, ok := CoefficientOfVariation([]float64{-1, 1}); ok {
		t.Error("CV with zero mean reported ok")
	}
}

func TestAbsPercentError(t *testing.T) {
	if e := AbsPercentError(110, 100); !AlmostEqual(e, 10, 1e-12) {
		t.Errorf("APE = %v, want 10", e)
	}
	if e := AbsPercentError(0, 0); e != 0 {
		t.Errorf("APE(0,0) = %v, want 0", e)
	}
	if e := AbsPercentError(1, 0); !math.IsInf(e, 1) {
		t.Errorf("APE(1,0) = %v, want +Inf", e)
	}
}

func TestSMAPEPerfect(t *testing.T) {
	s, ok := SMAPE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if !ok || s != 0 {
		t.Errorf("SMAPE perfect = %v, want 0", s)
	}
}

func TestSMAPEWorstCase(t *testing.T) {
	// Opposite signs give the maximum symmetric error of 200%.
	s, ok := SMAPE([]float64{1}, []float64{-1})
	if !ok || !AlmostEqual(s, 200, 1e-9) {
		t.Errorf("SMAPE opposite = %v, want 200", s)
	}
}

func TestSMAPEMismatch(t *testing.T) {
	if _, ok := SMAPE([]float64{1}, []float64{1, 2}); ok {
		t.Error("SMAPE length mismatch reported ok")
	}
}

// Property: SMAPE is symmetric in its arguments and bounded by [0, 200].
func TestSMAPESymmetryBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 50
			b[i] = rng.NormFloat64() * 50
		}
		s1, ok1 := SMAPE(a, b)
		s2, ok2 := SMAPE(b, a)
		if !ok1 || !ok2 {
			t.Fatal("SMAPE failed on valid input")
		}
		if !AlmostEqual(s1, s2, 1e-9) {
			t.Fatalf("SMAPE asymmetric: %v vs %v", s1, s2)
		}
		if s1 < 0 || s1 > 200+1e-9 {
			t.Fatalf("SMAPE out of bounds: %v", s1)
		}
	}
}

func TestRSS(t *testing.T) {
	r, ok := RSS([]float64{1, 2}, []float64{0, 4})
	if !ok || !Close(r, 5) {
		t.Errorf("RSS = %v, want 5", r)
	}
}

func TestRSquaredPerfectFit(t *testing.T) {
	r2, ok := RSquared([]float64{1, 2, 3}, []float64{1, 2, 3})
	if !ok || !AlmostEqual(r2, 1, 1e-12) {
		t.Errorf("R² = %v, want 1", r2)
	}
}

func TestRSquaredZeroVariance(t *testing.T) {
	if _, ok := RSquared([]float64{1, 1}, []float64{2, 2}); ok {
		t.Error("R² with zero TSS reported ok")
	}
}

func TestLog2(t *testing.T) {
	if v := Log2(8); !Close(v, 3) {
		t.Errorf("Log2(8) = %v, want 3", v)
	}
	if v := Log2(0); !math.IsNaN(v) {
		t.Errorf("Log2(0) = %v, want NaN", v)
	}
	if v := Log2(-1); !math.IsNaN(v) {
		t.Errorf("Log2(-1) = %v, want NaN", v)
	}
}

// TestMedianInPlace: MedianInPlace returns Median's bits for the same
// input, including signed zeros and ties, and leaves xs sorted.
func TestMedianInPlace(t *testing.T) {
	if _, ok := MedianInPlace(nil); ok {
		t.Error("empty input accepted")
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(9))
		for i := range xs {
			xs[i] = []float64{0, math.Copysign(0, -1), 1, -2.5, rng.NormFloat64()}[rng.Intn(5)]
		}
		want, _ := Median(xs)
		got, ok := MedianInPlace(xs)
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MedianInPlace = %v, Median = %v", got, want)
		}
		if !sort.Float64sAreSorted(xs) {
			t.Fatalf("xs left unsorted: %v", xs)
		}
	}
}
