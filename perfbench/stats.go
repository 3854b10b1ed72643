package main

import (
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile, so the tail is never set by one or two outliers.
const tailMinBeyond = 10

// tail is the highest integer percentile of a sample set that still has
// at least tailMinBeyond samples beyond it.
type tail struct {
	// Percentile is the chosen percentile, 1–99, or 100 (the maximum)
	// when the set is too small for any percentile to qualify.
	Percentile int
	// Value is the nearest-rank value at that percentile.
	Value float64
	// Beyond counts the samples strictly after that rank.
	Beyond int
	// N is the sample count.
	N int
}

// tailOf applies the tail rule to a sorted sample set: among the integer
// percentiles p = 99, 98, …, 1 it takes the highest whose nearest-rank
// index ⌈p·n/100⌉ leaves at least tailMinBeyond samples after it.
func tailOf(sorted []float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{}
	}
	for p := 99; p >= 1; p-- {
		rank := (p*n + 99) / 100 // ⌈p·n/100⌉, 1-based
		if rank < 1 {
			rank = 1
		}
		if beyond := n - rank; beyond >= tailMinBeyond {
			return tail{Percentile: p, Value: sorted[rank-1], Beyond: beyond, N: n}
		}
	}
	return tail{Percentile: 100, Value: sorted[n-1], N: n}
}

// median returns the median of a sample set (the mean of the two middle
// values for an even count); it does not modify its argument.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return s[n/2-1]/2 + s[n/2]/2
}

// throughputChunks is how many consecutive groups chunkThroughputs splits
// a run's ops into.
const throughputChunks = 10

// chunkThroughputs splits a run's ops, in the order they ran, into
// throughputChunks consecutive groups and gives each group's throughput
// in ops per second: its op count over its summed op time. The run's
// throughput is the median group, so that a short stall from outside the
// process moves one group rather than the whole figure.
func chunkThroughputs(lat []time.Duration) []float64 {
	k := min(throughputChunks, len(lat))
	per := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		group := lat[i*len(lat)/k : (i+1)*len(lat)/k]
		var sum time.Duration
		for _, d := range group {
			sum += d
		}
		per = append(per, ratio(float64(len(group)), sum.Seconds()))
	}
	return per
}

// millis converts durations to float milliseconds, sorted ascending.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// ratio divides, answering 0 for an empty or degenerate denominator.
func ratio(num, den float64) float64 {
	if den <= 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}
