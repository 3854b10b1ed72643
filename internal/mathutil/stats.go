// Package mathutil provides the small numerical and statistical kernel used
// throughout Extra-Deep: robust location estimates (median), dispersion
// measures, error metrics (SMAPE, RSS, R²), and probability helpers (normal
// and Student-t quantiles) for confidence intervals.
//
// All functions operate on float64 slices and never modify their inputs
// unless explicitly documented otherwise.
package mathutil

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("mathutil: empty input")

// Sum returns the sum of xs. An empty slice sums to zero.
func Sum(xs []float64) float64 {
	// Kahan summation: profiles can mix nanosecond-scale kernel durations
	// with multi-second phase totals, where naive summation loses precision.
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs.
// It returns 0 and false when xs is empty.
func Mean(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	return Sum(xs) / float64(len(xs)), true
}

// Median returns the median of xs without modifying it.
// It returns 0 and false when xs is empty.
//
// The median is the central aggregator of Extra-Deep's sampling strategy
// (Fig. 2 of the paper): values are reduced step→rank→repetition by medians
// because medians resist the heavy-tailed noise of individual kernel timings.
func Median(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	return MedianInPlace(append([]float64(nil), xs...))
}

// MedianInPlace is Median for a caller that no longer needs xs: it
// sorts xs in place instead of sorting a copy. Given the same xs it
// returns the same bits as Median.
func MedianInPlace(xs []float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2], true
	}
	// Halve before adding so that two near-max-magnitude values of the
	// same sign do not overflow to ±Inf.
	return xs[n/2-1]/2 + xs[n/2]/2, true
}

// Variance returns the unbiased sample variance of xs (divisor n−1).
// It returns 0 and false when xs has fewer than two elements.
func Variance(xs []float64) (float64, bool) {
	if len(xs) < 2 {
		return 0, false
	}
	mean, _ := Mean(xs) // non-empty by the guard above
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return ss / float64(len(xs)-1), true
}

// StdDev returns the unbiased sample standard deviation of xs.
// It returns 0 and false when xs has fewer than two elements.
func StdDev(xs []float64) (float64, bool) {
	v, ok := Variance(xs)
	if !ok {
		return 0, false
	}
	//edlint:ignore logdomain sample variance is a sum of squares divided by n-1 and cannot be negative
	return math.Sqrt(v), true
}

// CoefficientOfVariation returns the relative dispersion σ/|µ| of xs, the
// statistic the paper reports as "run-to-run variation". It returns 0 and
// false when xs has fewer than two elements or a zero mean.
func CoefficientOfVariation(xs []float64) (float64, bool) {
	sd, ok := StdDev(xs)
	if !ok {
		return 0, false
	}
	mean, _ := Mean(xs) // non-empty: StdDev demands len >= 2
	if mean == 0 {
		return 0, false
	}
	return sd / math.Abs(mean), true
}

// AbsPercentError returns |predicted−actual| / |actual| · 100.
// A zero actual value with a non-zero prediction yields +Inf; two zeros
// yield 0 (a perfect prediction of nothing).
func AbsPercentError(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / math.Abs(actual) * 100
}

// SMAPE returns the symmetric mean absolute percentage error (in percent,
// range [0,200]) between predictions and actuals, the model-selection
// criterion of Extra-P and Extra-Deep (Section 2.3 of the paper).
// It returns 0 and false when the slices are empty or of unequal length.
func SMAPE(predicted, actual []float64) (float64, bool) {
	if len(predicted) == 0 || len(predicted) != len(actual) {
		return 0, false
	}
	var total float64
	for i := range predicted {
		p, a := predicted[i], actual[i]
		denom := math.Abs(p) + math.Abs(a)
		if denom == 0 {
			continue // both zero: defined as zero error
		}
		total += 2 * math.Abs(p-a) / denom
	}
	return total / float64(len(predicted)) * 100, true
}

// RSS returns the residual sum of squares Σ(predicted−actual)².
// It returns 0 and false when the slices are empty or of unequal length.
func RSS(predicted, actual []float64) (float64, bool) {
	if len(predicted) == 0 || len(predicted) != len(actual) {
		return 0, false
	}
	var rss float64
	for i := range predicted {
		d := predicted[i] - actual[i]
		rss += d * d
	}
	return rss, true
}

// RSquared returns the coefficient of determination of predictions against
// actuals: 1 − RSS/TSS. It returns 0 and false when the slices are empty,
// of unequal length, or when the actuals have zero total variance (TSS = 0).
func RSquared(predicted, actual []float64) (float64, bool) {
	rss, ok := RSS(predicted, actual)
	if !ok {
		return 0, false
	}
	mean, _ := Mean(actual) // non-empty: RSS checked the lengths
	var tss float64
	for _, a := range actual {
		d := a - mean
		tss += d * d
	}
	if tss == 0 {
		return 0, false
	}
	return 1 - rss/tss, true
}

// Log2 returns log₂(x). It is a tiny convenience wrapper that keeps the
// PMNF code readable and centralizes the domain convention: Log2 of a
// non-positive value returns NaN (the caller is expected to guard domains).
func Log2(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	return math.Log2(x)
}
