package analysis

import (
	"errors"
	"math"
)

// RecommendPoints suggests measurement configurations for modeling toward
// a target scale, implementing the guidance of the paper's Section 4.3: a
// prediction for 1024 ranks from measurements at {2,…,10} is unrealistic,
// but one from {8,16,32,64,128} is possible — the points should form a
// geometric progression whose largest value is within about a factor of
// eight of the target, so that no scale-dependent behaviour change (e.g. a
// communication-algorithm switch) lies entirely outside the measured
// range.
//
// It returns `count` values (at least the modeling minimum of 5) spaced by
// factor two, ending at max(minStart, target/8), and rounded to integers.
func RecommendPoints(target float64, count int, minStart float64) ([]float64, error) {
	if target <= 1 {
		return nil, errors.New("analysis: target scale must exceed 1")
	}
	if count < 5 {
		count = 5
	}
	if minStart < 1 {
		minStart = 1
	}
	top := target / 8
	if top < minStart {
		top = minStart
	}
	start := top / math.Pow(2, float64(count-1))
	if start < minStart {
		// Small targets: anchor the series at minStart and grow upward,
		// measuring closer to (at most up to) the target itself.
		start = minStart
	}
	pts := make([]float64, 0, count)
	v := start
	for i := 0; i < count; i++ {
		p := math.Max(1, math.Round(v))
		if p > target {
			break
		}
		pts = append(pts, p)
		v *= 2
	}
	// De-duplicate after rounding (tiny targets collapse small points).
	out := pts[:0]
	var last float64
	for _, p := range pts {
		if p != last {
			out = append(out, p)
			last = p
		}
	}
	if len(out) < 5 {
		return nil, errors.New("analysis: target too small to place five distinct points")
	}
	return out, nil
}

// ExtrapolationRatio quantifies how far a prediction target lies beyond
// the measured range: target / largest modeling point. The paper treats
// ratios up to ≈8 as reliable and warns that errors grow with the ratio.
func ExtrapolationRatio(modelingPoints []float64, target float64) float64 {
	var max float64
	for _, p := range modelingPoints {
		if p > max {
			max = p
		}
	}
	if max <= 0 {
		return math.Inf(1)
	}
	return target / max
}
