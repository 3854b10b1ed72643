package mathutil

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The fit engine's fold replay solves every fold into one reused
// Elimination; its bit-identical-selection guarantee requires that to
// return exactly the same solution bits as SolveLinearSystem for the same
// system, after any earlier system on the same Elimination.

// solveInto solves A·x = b into the reused elimination e as the fold
// replay does: Factor, then Apply on a copy of b.
func solveInto(e *Elimination, a [][]float64, b []float64) ([]float64, error) {
	if err := e.Factor(a); err != nil {
		return nil, err
	}
	return e.Apply(append([]float64(nil), b...))
}

func randomSystem(rng *rand.Rand, n int) ([][]float64, []float64) {
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.NormFloat64() * 10
		}
		a[i][i] += float64(n) * 5 // diagonally dominant: well-conditioned
		b[i] = rng.NormFloat64() * 100
	}
	return a, b
}

func TestSolveIntoMatchesSolveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var e Elimination
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		a, b := randomSystem(rng, n)
		want, err1 := SolveLinearSystem(a, b)
		got, err2 := solveInto(&e, a, b)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("trial %d (n=%d) x[%d]: fresh %x, reused elimination %x",
					trial, n, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
			}
		}
	}
}

func TestSolveIntoWorkspaceReuseAcrossSizes(t *testing.T) {
	// An elimination grown by a large solve must still produce
	// bit-identical results for smaller systems afterwards (stale buffer
	// content must never leak into a solution).
	rng := rand.New(rand.NewSource(11))
	var e Elimination
	big, bigB := randomSystem(rng, 6)
	if _, err := solveInto(&e, big, bigB); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 4; n++ {
		a, b := randomSystem(rng, n)
		want, err := SolveLinearSystem(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solveInto(&e, a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("n=%d x[%d]: fresh %x, reused elimination %x",
					n, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
			}
		}
	}
}

func TestSolveIntoDoesNotMutateInputs(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	aCopy := [][]float64{{2, 1}, {1, 3}}
	bCopy := []float64{5, 10}
	var e Elimination
	if _, err := solveInto(&e, a, b); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(aCopy[i][j]) {
				t.Fatalf("a[%d][%d] mutated", i, j)
			}
		}
		if math.Float64bits(b[i]) != math.Float64bits(bCopy[i]) {
			t.Fatalf("b[%d] mutated", i)
		}
	}
}

func TestSolveIntoErrorParity(t *testing.T) {
	var e Elimination
	cases := []struct {
		name string
		a    [][]float64
		b    []float64
	}{
		{"empty", nil, nil},
		{"mismatch", [][]float64{{1, 0}, {0, 1}}, []float64{1}},
		{"ragged", [][]float64{{1, 0}, {0}}, []float64{1, 2}},
		{"singular", [][]float64{{1, 2}, {2, 4}}, []float64{1, 2}},
		{"zero-row", [][]float64{{0, 0}, {1, 1}}, []float64{1, 2}},
	}
	for _, tc := range cases {
		_, err1 := SolveLinearSystem(tc.a, tc.b)
		_, err2 := solveInto(&e, tc.a, tc.b)
		if err1 == nil || err2 == nil {
			t.Fatalf("%s: expected errors, got %v and %v", tc.name, err1, err2)
		}
		if errors.Is(err1, ErrSingular) != errors.Is(err2, ErrSingular) {
			t.Fatalf("%s: singular classification differs: %v vs %v", tc.name, err1, err2)
		}
	}
}
