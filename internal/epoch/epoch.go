// Package epoch implements Extra-Deep's extrapolation of sampled per-step
// measurements to full training epochs (Section 2.3.1 of the paper):
//
//	n_t = ⌊(D_t/(G/M))/B⌋                      (Eq. 2)
//	n_v = ⌊(D_v/(G/M))/B⌋                      (Eq. 3)
//	F_kernel = n_t·ṽ_t + n_v·ṽ_v               (Eq. 4)
//	F_epoch  = n_t·(ṽ_t_comp+ṽ_t_comm+ṽ_t_mem)
//	         + n_v·(ṽ_v_comp+ṽ_v_comm+ṽ_v_mem) (Eq. 6)
//
// and assembles measurement experiments of the derived per-epoch metric
// values, which modeling then fits with the PMNF.
package epoch

import (
	"errors"
	"fmt"
	"math"

	"extradeep/internal/aggregate"
	"extradeep/internal/calltree"
	"extradeep/internal/measurement"
)

// Params are the analytical training-setup values the user provides once
// per application configuration (Section 2.3.1): batch size per worker B,
// dataset sizes, and the degrees of data and model parallelism.
type Params struct {
	// BatchSize is the batch size per worker B.
	BatchSize float64
	// TrainSamples is the number of samples in the training set D_t
	// (after any weak-scaling dataset replication).
	TrainSamples float64
	// ValSamples is the number of samples in the validation set D_v.
	ValSamples float64
	// DataParallel is the degree of data parallelism G.
	DataParallel float64
	// ModelParallel is the degree of model parallelism M.
	ModelParallel float64
}

// Validate checks that the parameters are usable.
func (p Params) Validate() error {
	if p.BatchSize <= 0 {
		return fmt.Errorf("epoch: batch size %v must be positive", p.BatchSize)
	}
	if p.DataParallel <= 0 || p.ModelParallel <= 0 {
		return fmt.Errorf("epoch: parallel degrees G=%v M=%v must be positive", p.DataParallel, p.ModelParallel)
	}
	if p.TrainSamples < 0 || p.ValSamples < 0 {
		return errors.New("epoch: negative dataset size")
	}
	return nil
}

// TrainSteps returns the number of training steps per epoch n_t (Eq. 2).
// Parameters that fail Validate yield 0 steps rather than a NaN-poisoned
// count.
func (p Params) TrainSteps() int {
	if p.BatchSize <= 0 || p.DataParallel <= 0 || p.ModelParallel <= 0 {
		return 0
	}
	return int(math.Floor(p.TrainSamples / (p.DataParallel / p.ModelParallel) / p.BatchSize))
}

// ValSteps returns the number of validation steps per epoch n_v (Eq. 3).
// Parameters that fail Validate yield 0 steps rather than a NaN-poisoned
// count.
func (p Params) ValSteps() int {
	if p.BatchSize <= 0 || p.DataParallel <= 0 || p.ModelParallel <= 0 {
		return 0
	}
	return int(math.Floor(p.ValSamples / (p.DataParallel / p.ModelParallel) / p.BatchSize))
}

// KernelValue computes the derived per-epoch metric value F_kernel (Eq. 4)
// from a kernel's final aggregate.
func KernelValue(sv aggregate.StepValue, p Params) float64 {
	return float64(p.TrainSteps())*sv.Train + float64(p.ValSteps())*sv.Validation
}

// SetupFunc maps an application configuration to its training-setup
// parameters; the dataset sizes may depend on the configuration (weak
// scaling multiplies the training set by the number of ranks).
type SetupFunc func(point measurement.Point) Params

// Callpath names for the synthetic application-level series.
const (
	// AppPath carries the total per-epoch value F_epoch (Eq. 6).
	AppPath = "App"
	// CompPath, CommPath and MemPath carry F_comp, F_comm, F_mem
	// (Eqs. 8–10).
	CompPath = "App(computation)"
	CommPath = "App(communication)"
	MemPath  = "App(memory)"
)

// CategoryPath returns the synthetic callpath for a phase category.
func CategoryPath(c calltree.Category) string {
	switch c {
	case calltree.CategoryComputation:
		return CompPath
	case calltree.CategoryCommunication:
		return CommPath
	case calltree.CategoryMemory:
		return MemPath
	default:
		return ""
	}
}

// slab hands out capped subslices of one allocation, so the series of an
// experiment share a few allocations without aliasing one another.
type slab []float64

// take returns the next n values.
func (s *slab) take(n int) []float64 {
	out := (*s)[:n:n]
	*s = (*s)[n:]
	return out
}

// point returns a copy of p.
func (s *slab) point(p measurement.Point) measurement.Point {
	out := s.take(len(p))
	copy(out, p)
	return out
}

// BuildKernelExperiment assembles a measurement experiment of derived
// per-epoch values for every kernel (one series per metric and callpath,
// one repetition value per profiled repetition). Parameter names are taken
// from the first aggregate.
func BuildKernelExperiment(aggs []*aggregate.ConfigAggregate, setup SetupFunc) (*measurement.Experiment, error) {
	if len(aggs) == 0 {
		return nil, errors.New("epoch: no aggregates")
	}
	params := make([]measurement.Parameter, len(aggs[0].Params))
	for i, name := range aggs[0].Params {
		params[i] = measurement.Parameter{Name: name}
	}
	exp := measurement.NewExperiment(params...)
	n := 0
	for _, agg := range aggs {
		for _, k := range agg.Kernels {
			for i := range k.Metrics() {
				n += len(agg.Point) + len(k.PerRep[i])
			}
		}
	}
	vals := make(slab, n)
	for _, agg := range aggs {
		p := setup(agg.Point)
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("epoch: setup for %s: %w", agg.Point.Key(), err)
		}
		for _, k := range agg.SortedKernels() {
			for i, metric := range k.Metrics() {
				perRep := k.PerRep[i]
				reps := vals.take(len(perRep))
				for r, sv := range perRep {
					reps[r] = KernelValue(sv, p)
				}
				if err := exp.AddOwned(metric, k.Callpath, vals.point(agg.Point), reps, len(aggs)); err != nil {
					return nil, err
				}
			}
		}
	}
	return exp, nil
}

// BuildApplicationExperiment assembles the application-level experiment:
// per metric, the category series F_comp/F_comm/F_mem (Eqs. 8–10) and the
// total F_epoch series (Eq. 6), with one repetition value per profiled
// repetition.
func BuildApplicationExperiment(aggs []*aggregate.ConfigAggregate, setup SetupFunc) (*measurement.Experiment, error) {
	if len(aggs) == 0 {
		return nil, errors.New("epoch: no aggregates")
	}
	params := make([]measurement.Parameter, len(aggs[0].Params))
	for i, name := range aggs[0].Params {
		params[i] = measurement.Parameter{Name: name}
	}
	exp := measurement.NewExperiment(params...)
	cats := []calltree.Category{
		calltree.CategoryComputation,
		calltree.CategoryCommunication,
		calltree.CategoryMemory,
	}
	n := 0
	for _, agg := range aggs {
		n += len(agg.Point) + agg.Reps // the F_epoch series
		for _, cat := range cats {
			for _, perRep := range agg.CategoriesPerRep[cat] {
				if perRep != nil {
					n += len(agg.Point) + len(perRep)
				}
			}
		}
	}
	vals := make(slab, n)
	for _, agg := range aggs {
		p := setup(agg.Point)
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("epoch: setup for %s: %w", agg.Point.Key(), err)
		}
		totals := vals.take(agg.Reps) // per-rep F_epoch for MetricTime
		for _, cat := range cats {
			for i, perRep := range agg.CategoriesPerRep[cat] {
				if perRep == nil {
					continue // no member kernel records the metric
				}
				metric := aggregate.MetricAt(i)
				reps := vals.take(len(perRep))
				for r, sv := range perRep {
					reps[r] = KernelValue(sv, p)
					if metric == measurement.MetricTime && r < len(totals) {
						totals[r] += reps[r]
					}
				}
				if err := exp.AddOwned(metric, CategoryPath(cat), vals.point(agg.Point), reps, len(aggs)); err != nil {
					return nil, err
				}
			}
		}
		if err := exp.AddOwned(measurement.MetricTime, AppPath, vals.point(agg.Point), totals, len(aggs)); err != nil {
			return nil, err
		}
	}
	return exp, nil
}
