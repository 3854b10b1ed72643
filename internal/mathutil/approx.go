package mathutil

import "math"

// AlmostEqual reports whether a and b are equal within the absolute
// tolerance tol. Exactly equal values — including equal infinities — are
// always almost-equal; NaN is almost-equal to nothing, so a poisoned
// value can never sneak through a comparison.
//
// Use it for computed values: exact ==/!= silently breaks under the
// rounding that pervades the aggregation and model-fitting arithmetic.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol
}

// Close reports whether a and b agree to roughly nine significant digits,
// using the hybrid absolute/relative tolerance 1e-9·max(1, |a|, |b|).
// It is the default comparison for tests: tight enough to catch any
// genuine numerical bug, loose enough to absorb benign rounding at every
// magnitude from nanoseconds to petaFLOP counts.
func Close(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return AlmostEqual(a, b, 1e-9*scale)
}
