package main

import (
	"math"
	"sort"
	"testing"
	"time"

	"extradeep/internal/mathutil"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, percentile, beyond int
		value                 float64
	}{
		{n: 1000, percentile: 99, beyond: 10, value: 990},
		{n: 100, percentile: 90, beyond: 10, value: 90},
		{n: 55, percentile: 81, beyond: 10, value: 45},
		{n: 11, percentile: 9, beyond: 10, value: 1},
		{n: 10, percentile: 100, beyond: 0, value: 10},
	} {
		got := tailOf(ascending(tc.n))
		if got.Percentile != tc.percentile || got.Beyond != tc.beyond || !mathutil.Close(got.Value, tc.value) || got.N != tc.n {
			t.Errorf("n=%d: got p%d = %v with %d beyond, want p%d = %v with %d beyond",
				tc.n, got.Percentile, got.Value, got.Beyond, tc.percentile, tc.value, tc.beyond)
		}
		if got.Beyond < tailMinBeyond && got.Percentile != 100 {
			t.Errorf("n=%d: p%d has only %d samples beyond it", tc.n, got.Percentile, got.Beyond)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("empty set: got %+v", got)
	}
}

// TestTailNextPercentileUpHasTooFewBeyond pins "highest": one percentile
// more would leave fewer than tailMinBeyond samples beyond it.
func TestTailNextPercentileUpHasTooFewBeyond(t *testing.T) {
	for n := 11; n <= 3000; n += 7 {
		got := tailOf(ascending(n))
		if got.Beyond < tailMinBeyond {
			t.Fatalf("n=%d: p%d leaves %d beyond", n, got.Percentile, got.Beyond)
		}
		if up := got.Percentile + 1; up <= 99 {
			if rank := (up*n + 99) / 100; n-rank >= tailMinBeyond {
				t.Fatalf("n=%d: p%d also leaves %d beyond, so p%d is not the highest", n, up, n-rank, got.Percentile)
			}
		}
	}
}

func TestThroughputIsMedianChunk(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = 10 * time.Millisecond
	}
	lat[42] = time.Second // a stall inside one chunk
	if got := median(chunkThroughputs(lat)); math.Abs(got-100) > 1e-9 {
		t.Errorf("throughput = %v/s, want 100/s", got)
	}
	if got := median(chunkThroughputs(lat[:3])); math.Abs(got-100) > 1e-9 {
		t.Errorf("throughput of 3 ops = %v/s, want 100/s", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if got := median(xs); !mathutil.Close(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if sort.Float64sAreSorted(xs) {
		t.Errorf("median sorted its argument: %v", xs)
	}
}
