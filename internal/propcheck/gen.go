package propcheck

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Gen describes how to generate — and optionally shrink and render —
// values of one type. Generate must be a pure function of the Rand it is
// given; Shrink must be deterministic and return candidates that are
// structurally strictly simpler than v (the shrinker guarantees
// termination by bounding candidate evaluations, but monotone candidates
// shrink much faster). Both extra fields may be nil.
type Gen[T any] struct {
	// Generate draws one value.
	Generate func(r *Rand) T
	// Shrink proposes simpler variants of a failing value, most
	// aggressive first. Nil disables shrinking.
	Shrink func(v T) []T
	// Describe renders a value in failure reports; nil falls back to %#v.
	Describe func(v T) string
}

// Const returns a generator that always yields v.
func Const[T any](v T) Gen[T] {
	return Gen[T]{Generate: func(*Rand) T { return v }}
}

// IntRange generates uniform ints in [lo, hi], shrinking toward lo.
func IntRange(lo, hi int) Gen[int] {
	return Gen[int]{
		Generate: func(r *Rand) int { return r.IntRange(lo, hi) },
		Shrink:   func(v int) []int { return shrinkInt(v, lo) },
	}
}

// Int64Range generates uniform int64s in [lo, hi], shrinking toward lo.
func Int64Range(lo, hi int64) Gen[int64] {
	return Gen[int64]{
		Generate: func(r *Rand) int64 { return r.Int64Range(lo, hi) },
		Shrink: func(v int64) []int64 {
			var out []int64
			for _, c := range shrinkLadder(v-lo, 0) {
				out = append(out, lo+c)
			}
			return out
		},
	}
}

// shrinkInt proposes candidates between floor and v, most aggressive
// first: the floor itself, then a binary ladder approaching v — ending
// at v−1, so a greedy re-check converges to the minimal failing value in
// O(log²) evaluations.
func shrinkInt(v, floor int) []int {
	var out []int
	for _, c := range shrinkLadder(int64(v)-int64(floor), 0) {
		out = append(out, floor+int(c))
	}
	return out
}

// shrinkLadder returns [floor, v−(v−floor)/2, v−(v−floor)/4, …, v−1]
// for v > floor (empty otherwise).
func shrinkLadder(v, floor int64) []int64 {
	if v <= floor {
		return nil
	}
	out := []int64{floor}
	for delta := (v - floor) / 2; delta > 0; delta /= 2 {
		out = append(out, v-delta)
	}
	return out
}

// Float64Range generates uniform finite float64s in [lo, hi), shrinking
// toward lo and toward round numbers. NaN and ±Inf are never produced.
func Float64Range(lo, hi float64) Gen[float64] {
	return Gen[float64]{
		Generate: func(r *Rand) float64 { return r.Float64Range(lo, hi) },
		Shrink: func(v float64) []float64 {
			var out []float64
			if t := math.Trunc(v); t != v && t >= lo {
				out = append(out, t) // drop the fractional part first
			}
			if mid := lo + (v-lo)/2; mid != v {
				out = append(out, mid)
			}
			if lo != v {
				out = append(out, lo)
			}
			return out
		},
	}
}

// Bool generates fair booleans, shrinking true → false.
func Bool() Gen[bool] {
	return Gen[bool]{
		Generate: func(r *Rand) bool { return r.Bool() },
		Shrink: func(v bool) []bool {
			if v {
				return []bool{false}
			}
			return nil
		},
	}
}

// OneOf picks uniformly among the given choices, shrinking toward
// earlier ones (put the simplest choice first).
func OneOf[T any](choices ...T) Gen[T] {
	return Gen[T]{
		Generate: func(r *Rand) T { return choices[r.Intn(len(choices))] },
	}
}

// SliceOf generates slices with length in [minLen, maxLen] whose
// elements come from elem. Shrinking removes elements down to minLen
// (halves first, then single elements) and then shrinks elements
// individually.
func SliceOf[T any](elem Gen[T], minLen, maxLen int) Gen[[]T] {
	return Gen[[]T]{
		Generate: func(r *Rand) []T {
			n := r.IntRange(minLen, maxLen)
			out := make([]T, n)
			for i := range out {
				out[i] = elem.Generate(r)
			}
			return out
		},
		Shrink: func(v []T) [][]T {
			var out [][]T
			// Structural cuts: drop the second half, then single elements.
			if len(v) > minLen {
				if keep := minLen + (len(v)-minLen)/2; keep < len(v) {
					out = append(out, append([]T(nil), v[:keep]...))
				}
				for i := len(v) - 1; i >= 0 && len(out) < 12; i-- {
					cut := make([]T, 0, len(v)-1)
					cut = append(cut, v[:i]...)
					cut = append(cut, v[i+1:]...)
					out = append(out, cut)
				}
			}
			// Element-wise shrinks, one element at a time.
			if elem.Shrink != nil {
				for i := range v {
					for _, sv := range elem.Shrink(v[i]) {
						cp := append([]T(nil), v...)
						cp[i] = sv
						out = append(out, cp)
						if len(out) >= 32 {
							return out
						}
					}
				}
			}
			return out
		},
	}
}

// MapOf generates maps with size in [minLen, maxLen]; duplicate keys
// drawn from key collapse, so sizes below minLen are possible when the
// key space is small. Shrinking drops entries (in sorted key order, for
// determinism) and shrinks values.
func MapOf[K comparable, V any](key Gen[K], val Gen[V], minLen, maxLen int) Gen[map[K]V] {
	return Gen[map[K]V]{
		Generate: func(r *Rand) map[K]V {
			n := r.IntRange(minLen, maxLen)
			out := make(map[K]V, n)
			for i := 0; i < n; i++ {
				out[key.Generate(r)] = val.Generate(r)
			}
			return out
		},
		Shrink: func(v map[K]V) []map[K]V {
			if len(v) <= minLen {
				return nil
			}
			keys := sortedKeys(v)
			var out []map[K]V
			for _, k := range keys {
				cp := make(map[K]V, len(v)-1)
				for _, kk := range keys {
					if kk != k {
						cp[kk] = v[kk]
					}
				}
				out = append(out, cp)
				if len(out) >= 16 {
					break
				}
			}
			return out
		},
		Describe: func(v map[K]V) string {
			// Render in sorted key order so identical maps always print
			// identically.
			var b strings.Builder
			b.WriteString("map{")
			for i, k := range sortedKeys(v) {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%v:%v", k, v[k])
			}
			b.WriteString("}")
			return b.String()
		},
	}
}

// sortedKeys orders map keys by their rendered form — deterministic for
// any comparable key type.
func sortedKeys[K comparable, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j])
	})
	return keys
}
