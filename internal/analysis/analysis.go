// Package analysis implements the performance-analysis layer of Extra-Deep
// (Section 3 of the paper): training speedup models (Eqs. 11–12), parallel
// efficiency (Eq. 13), training cost in CPU core-hours (Eq. 14), bottleneck
// ranking by asymptotic growth, and the search for cost-effective training
// configurations under budget and time constraints (Fig. 4).
package analysis

import (
	"errors"
	"fmt"
	"sort"

	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/pmnf"
)

// Speedups computes the paper's speedup metric Δ for a runtime function
// over the parameter-value series xs (Eq. 11): the percentage gain (or
// loss, negative) in runtime relative to the first point,
// Δ_Pk = (T₁−T_k)/(T₁/100). The first entry is always 0.
func Speedups(runtime *pmnf.Function, xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, errors.New("analysis: empty parameter series")
	}
	t1 := runtime.Eval(xs[0])
	if t1 == 0 {
		return nil, errors.New("analysis: baseline runtime is zero")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		if i == 0 {
			continue
		}
		tk := runtime.Eval(x)
		out[i] = (t1 - tk) / (t1 / 100)
	}
	return out, nil
}

// SpeedupModel fits a PMNF model to the speedup series (Eq. 12). Speedups
// may be negative (slowdowns under weak scaling), so the fit permits
// negative coefficients regardless of the supplied options.
func SpeedupModel(runtime *pmnf.Function, xs []float64, opts modeling.Options) (*modeling.Model, error) {
	deltas, err := Speedups(runtime, xs)
	if err != nil {
		return nil, err
	}
	points := make([]measurement.Point, len(xs))
	for i, x := range xs {
		points[i] = measurement.Point{x}
	}
	opts.NonNegativeCoefficients = false
	return modeling.Fit(points, deltas, opts)
}

// TheoreticalSpeedup returns Δ_t of Eq. 13: the ideal speedup obtained
// from the resource increase alone, (x_k−x₁)/(x₁/100) percent.
func TheoreticalSpeedup(x1, xk float64) float64 {
	return (xk - x1) / (x1 / 100)
}

// Efficiencies computes the parallel efficiency ε = Δ_a/Δ_t (Eq. 13) for
// each point of the series. The baseline point has efficiency 1 (100%).
// Under strong scaling Δ_a is the actual speedup from the runtime model;
// ε < 1 signals parallelization overhead.
func Efficiencies(runtime *pmnf.Function, xs []float64) ([]float64, error) {
	deltas, err := Speedups(runtime, xs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(xs))
	out[0] = 1
	for i := 1; i < len(xs); i++ {
		dt := TheoreticalSpeedup(xs[0], xs[i])
		if dt == 0 {
			out[i] = 1
			continue
		}
		out[i] = deltas[i] / dt
	}
	return out, nil
}

// CostModel computes training cost per Eq. 14: C(x) = T(x)·o with
// o = x·ϱ the total number of CPU cores across all ranks. Cost is
// expressed in core-hours. A custom formula can replace the default.
type CostModel struct {
	// Runtime is the runtime model T (seconds per epoch) as a function of
	// the number of ranks.
	Runtime *pmnf.Function
	// CoresPerRank is ϱ, the CPU cores used by each MPI rank. On the
	// paper's systems GPU cost is folded into the core-hour price.
	CoresPerRank float64
	// PricePerCoreHour optionally converts core-hours to money; zero
	// leaves the result in core-hours.
	PricePerCoreHour float64
	// Custom optionally replaces the default formula entirely: it
	// receives (runtime seconds, ranks) and returns the cost.
	Custom func(runtimeSeconds, ranks float64) float64
}

// CoreHours returns the training cost of running at x ranks, in core-hours
// (or in money when PricePerCoreHour is set, or whatever Custom returns).
func (c CostModel) CoreHours(x float64) float64 {
	t := c.Runtime.Eval(x)
	if c.Custom != nil {
		return c.Custom(t, x)
	}
	hours := t * x * c.CoresPerRank / 3600
	if c.PricePerCoreHour > 0 {
		return hours * c.PricePerCoreHour
	}
	return hours
}

// CostSeries evaluates the cost at every point of the series.
func (c CostModel) CostSeries(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = c.CoreHours(x)
	}
	return out
}

// FitCostModel fits a PMNF model to the cost series, producing a closed
// form like the paper's C_epoch(x₁) = 0.082·x₁^1.62.
func (c CostModel) FitCostModel(xs []float64, opts modeling.Options) (*modeling.Model, error) {
	costs := c.CostSeries(xs)
	points := make([]measurement.Point, len(xs))
	for i, x := range xs {
		points[i] = measurement.Point{x}
	}
	return modeling.Fit(points, costs, opts)
}

// RankedKernel pairs a kernel with its model for bottleneck ranking.
type RankedKernel struct {
	// Callpath identifies the kernel.
	Callpath string
	// Model is the kernel's fitted runtime model.
	Model *modeling.Model
	// Growth is the model's asymptotic growth class (reported for
	// context).
	Growth pmnf.Growth
	// GrowthFactor is the predicted growth over the ranked range,
	// f(reference)/f(baseline) — the quantity kernels are ordered by.
	GrowthFactor float64
	// ValueAtReference is the model's prediction at the ranking reference
	// point, the tie-breaker among equal growth factors.
	ValueAtReference float64
}

// RankByGrowth orders kernels by their growth trend from baseline to
// reference (Section 3.1 of the paper): the kernel whose predicted cost
// grows by the largest factor over the evaluated range ranks first — it is
// the scaling bottleneck. Ties are broken by the predicted value at the
// reference point. Kernels whose model predicts a non-positive baseline
// (degenerate fits) rank last.
//
// A purely symbolic Big-O comparison would let a noise-fitted x^(1/4) on a
// flat kernel outrank a genuinely 10×-growing logarithmic communication
// model; ranking by the realized factor over the range of interest avoids
// that while still expressing "growth trend".
func RankByGrowth(models map[string]*modeling.Model, baseline, reference measurement.Point) []RankedKernel {
	out := make([]RankedKernel, 0, len(models))
	for path, m := range models {
		base := m.Function.EvalAt(baseline)
		ref := m.Function.EvalAt(reference)
		factor := 0.0
		if base > 0 && ref > 0 {
			factor = ref / base
		}
		out = append(out, RankedKernel{
			Callpath:         path,
			Model:            m,
			Growth:           m.Function.Growth(),
			GrowthFactor:     factor,
			ValueAtReference: ref,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		const eps = 1e-9
		fi, fj := out[i].GrowthFactor, out[j].GrowthFactor
		if fi > fj*(1+eps)+eps {
			return true
		}
		if fj > fi*(1+eps)+eps {
			return false
		}
		if out[i].ValueAtReference > out[j].ValueAtReference {
			return true
		}
		if out[i].ValueAtReference < out[j].ValueAtReference {
			return false
		}
		return out[i].Callpath < out[j].Callpath
	})
	return out
}

// SpeedupRankedKernel pairs a kernel with its achieved speedup between the
// baseline and reference scales.
type SpeedupRankedKernel struct {
	// Callpath identifies the kernel.
	Callpath string
	// Model is the kernel's runtime model.
	Model *modeling.Model
	// SpeedupPct is the paper's Δ metric (Eq. 11) between baseline and
	// reference: positive = the kernel got faster with scale, negative =
	// slower.
	SpeedupPct float64
}

// RankBySpeedup orders kernels by the speedup they achieve from the
// baseline to the reference configuration (Section 3.1: "this metric
// allows developers to easily identify the functions that benefit the most
// or least from scaling up"). The most-accelerated kernel ranks first;
// kernels that slow down rank last. Kernels with a non-positive baseline
// prediction (degenerate fits) are skipped.
func RankBySpeedup(models map[string]*modeling.Model, baseline, reference measurement.Point) []SpeedupRankedKernel {
	out := make([]SpeedupRankedKernel, 0, len(models))
	for path, m := range models {
		t1 := m.Function.EvalAt(baseline)
		tk := m.Function.EvalAt(reference)
		if t1 <= 0 {
			continue
		}
		out = append(out, SpeedupRankedKernel{
			Callpath:   path,
			Model:      m,
			SpeedupPct: (t1 - tk) / (t1 / 100),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].SpeedupPct > out[j].SpeedupPct {
			return true
		}
		if out[i].SpeedupPct < out[j].SpeedupPct {
			return false
		}
		return out[i].Callpath < out[j].Callpath
	})
	return out
}

// Constraint bounds the feasible training configurations: a maximum
// training time (the paper's "technically feasible" region) and a compute
// budget (the "economically feasible" region). Zero disables a bound.
type Constraint struct {
	// MaxTime is the maximum acceptable training time in seconds (per
	// epoch, matching the runtime model's time frame).
	MaxTime float64
	// Budget is the maximum acceptable cost in core-hours.
	Budget float64
}

// Feasibility is the assessment of one candidate configuration.
type Feasibility struct {
	Ranks      float64
	Time       float64
	Cost       float64
	Efficiency float64
	// TimeOK and CostOK report which constraints the configuration meets.
	TimeOK, CostOK bool
}

// Feasible reports whether the configuration meets all active constraints.
func (f Feasibility) Feasible() bool { return f.TimeOK && f.CostOK }

// Evaluate assesses every candidate configuration against the constraint,
// computing time, cost and parallel efficiency (relative to the first
// candidate).
func Evaluate(runtime *pmnf.Function, cost CostModel, xs []float64, c Constraint) ([]Feasibility, error) {
	effs, err := Efficiencies(runtime, xs)
	if err != nil {
		return nil, err
	}
	out := make([]Feasibility, len(xs))
	for i, x := range xs {
		t := runtime.Eval(x)
		ch := cost.CoreHours(x)
		out[i] = Feasibility{
			Ranks:      x,
			Time:       t,
			Cost:       ch,
			Efficiency: effs[i],
			TimeOK:     c.MaxTime <= 0 || t <= c.MaxTime,
			CostOK:     c.Budget <= 0 || ch <= c.Budget,
		}
	}
	return out, nil
}

// ErrNoFeasibleConfig is returned when no candidate meets the constraints.
var ErrNoFeasibleConfig = errors.New("analysis: no feasible configuration")

// MostCostEffective returns the feasible configuration with the highest
// parallel efficiency (Section 3.3). For weak scaling this degenerates to
// the smallest feasible allocation, matching the paper's observation; for
// strong scaling it balances the time/cost trade-off of Fig. 4b.
func MostCostEffective(runtime *pmnf.Function, cost CostModel, xs []float64, c Constraint) (Feasibility, error) {
	if len(xs) == 0 {
		return Feasibility{}, errors.New("analysis: empty candidate set")
	}
	fs, err := Evaluate(runtime, cost, xs, c)
	if err != nil {
		return Feasibility{}, err
	}
	best := -1
	for i, f := range fs {
		if !f.Feasible() {
			continue
		}
		// Strictly-better comparison with a small tolerance: among
		// configurations of (numerically) equal efficiency the smallest
		// resource allocation wins, matching the paper's weak-scaling
		// observation.
		if best == -1 || f.Efficiency > fs[best].Efficiency+1e-9 {
			best = i
		}
	}
	if best == -1 {
		return Feasibility{}, fmt.Errorf("%w: %d candidates, max time %.4g s, budget %.4g core-h",
			ErrNoFeasibleConfig, len(xs), c.MaxTime, c.Budget)
	}
	return fs[best], nil
}
