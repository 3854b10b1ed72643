package modeling_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/propcheck"
)

// fitCase describes a noise-free single-term PMNF dataset y = a + c·x^e
// over six power-of-two points, plus a positive scale s used by the
// equivariance checks. Restricting to polynomial shapes keeps x→c·x
// inside the hypothesis space (log² shapes do not scale-close).
type fitCase struct {
	a, c, e float64
	s       float64
}

var fitXs = []float64{2, 4, 8, 16, 32, 64}

func (c fitCase) data() ([]measurement.Point, []float64) {
	points := make([]measurement.Point, len(fitXs))
	values := make([]float64, len(fitXs))
	for i, x := range fitXs {
		points[i] = measurement.Point{x}
		values[i] = c.a + c.c*math.Pow(x, c.e)
	}
	return points, values
}

func fitCaseGen() propcheck.Gen[fitCase] {
	exps := []float64{0, 0.5, 1, 1.5, 2}
	return propcheck.Gen[fitCase]{
		Generate: func(r *propcheck.Rand) fitCase {
			return fitCase{
				a: r.Float64Range(0, 100),
				c: r.Float64Range(0.1, 10),
				e: exps[r.Intn(len(exps))],
				s: float64(r.IntRange(2, 8)),
			}
		},
		Describe: func(c fitCase) string {
			return fmt.Sprintf("{y = %g + %g·x^%g, s=%g}", c.a, c.c, c.e, c.s)
		},
	}
}

func relClose(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)) }

// TestPropFitScaleEquivariantInY: fitting c·y instead of y scales every
// prediction by c — SMAPE selection (Eq. 5) is scale-invariant in the
// measured metric, so changing units cannot change the chosen model's
// predictions relative to the data.
func TestPropFitScaleEquivariantInY(t *testing.T) {
	propcheck.Check(t, fitCaseGen(), func(c fitCase) error {
		points, values := c.data()
		scaled := make([]float64, len(values))
		for i, v := range values {
			scaled[i] = c.s * v
		}
		m1, err := modeling.Fit(points, values, modeling.DefaultOptions())
		if err != nil {
			return fmt.Errorf("fitting y: %w", err)
		}
		m2, err := modeling.Fit(points, scaled, modeling.DefaultOptions())
		if err != nil {
			return fmt.Errorf("fitting s·y: %w", err)
		}
		for _, p := range points {
			want := c.s * m1.Predict(p...)
			got := m2.Predict(p...)
			if !relClose(want, got, 1e-3) {
				return fmt.Errorf("at x=%g: s·predict(y-fit)=%g but predict(s·y-fit)=%g", p[0], want, got)
			}
		}
		return nil
	})
}

// TestPropFitScaleEquivariantInX: rescaling the parameter axis x→s·x on
// noise-free polynomial data leaves the fit exact — predictions at the
// scaled points still reproduce the observations.
func TestPropFitScaleEquivariantInX(t *testing.T) {
	propcheck.Check(t, fitCaseGen(), func(c fitCase) error {
		points, values := c.data()
		scaledPts := make([]measurement.Point, len(points))
		for i, p := range points {
			scaledPts[i] = measurement.Point{c.s * p[0]}
		}
		m, err := modeling.Fit(scaledPts, values, modeling.DefaultOptions())
		if err != nil {
			return fmt.Errorf("fitting on scaled axis: %w", err)
		}
		for i, p := range scaledPts {
			got := m.Predict(p...)
			if !relClose(values[i], got, 1e-3) {
				return fmt.Errorf("at x=%g: observed %g but model predicts %g", p[0], values[i], got)
			}
		}
		return nil
	})
}

// TestPropRefitOnOwnPredictionRecovers: feeding a model its own
// predictions as observations yields a model with the same predictions —
// fitting is a projection (idempotent on its own output).
func TestPropRefitOnOwnPredictionRecovers(t *testing.T) {
	propcheck.Check(t, fitCaseGen(), func(c fitCase) error {
		points, values := c.data()
		m1, err := modeling.Fit(points, values, modeling.DefaultOptions())
		if err != nil {
			return fmt.Errorf("first fit: %w", err)
		}
		predicted := make([]float64, len(points))
		for i, p := range points {
			predicted[i] = m1.Predict(p...)
		}
		m2, err := modeling.Fit(points, predicted, modeling.DefaultOptions())
		if err != nil {
			return fmt.Errorf("refit on own prediction: %w", err)
		}
		for i, p := range points {
			if !relClose(predicted[i], m2.Predict(p...), 1e-3) {
				return fmt.Errorf("at x=%g: refit predicts %g, want %g", p[0], m2.Predict(p...), predicted[i])
			}
		}
		return nil
	})
}

// TestPropFitDeterministicUnderConcurrency: concurrent Fit calls on the
// same data select bit-identical models — the sync.Map hypothesis caches
// must not make model selection depend on scheduling or worker count.
func TestPropFitDeterministicUnderConcurrency(t *testing.T) {
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 25}, fitCaseGen(), func(c fitCase) error {
		points, values := c.data()
		const workers = 8
		results := make([]*modeling.Model, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				results[w], errs[w] = modeling.Fit(points, values, modeling.DefaultOptions())
			}(w)
		}
		wg.Wait()
		for w := 1; w < workers; w++ {
			if errs[w] != nil || errs[0] != nil {
				return fmt.Errorf("worker errors: %v, %v", errs[0], errs[w])
			}
			if results[w].Function.String() != results[0].Function.String() {
				return fmt.Errorf("worker %d selected %q, worker 0 selected %q",
					w, results[w].Function.String(), results[0].Function.String())
			}
			if results[w].SMAPE != results[0].SMAPE {
				return fmt.Errorf("worker %d SMAPE %v differs from worker 0 SMAPE %v",
					w, results[w].SMAPE, results[0].SMAPE)
			}
		}
		return nil
	})
}
