// Package core is the Extra-Deep framework facade: it wires the complete
// performance-analysis pipeline of Fig. 1 — application profiling (here:
// the training simulator), data preprocessing and aggregation (Fig. 2),
// per-epoch extrapolation (Eqs. 2–4), automated PMNF modeling (Eq. 5/7),
// and the analysis layer — behind a small API.
//
// Typical use:
//
//	camp := core.Campaign{ ... }
//	res, err := core.RunCampaign(camp)
//	model := res.Models.App[epoch.AppPath]       // training time per epoch
//	pred := model.Predict(40)                    // Q1: time at 40 ranks
package core

import (
	"context"
	"fmt"
	"sort"

	"extradeep/internal/aggregate"
	"extradeep/internal/epoch"
	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/pipeline"
	"extradeep/internal/profile"
	"extradeep/internal/simulator/engine"
)

// campaignConfig resolves a campaign's pipeline configuration: a strong-
// scaling campaign that left Modeling unset fits with strong-scaling
// exponents (negative, for runtimes that shrink with scale). Every other
// field is the caller's, and pipeline.New fills in the defaults.
func campaignConfig(cfg pipeline.Config, strong bool) pipeline.Config {
	if strong && cfg.Modeling.Unset() {
		cfg.Modeling = modeling.StrongScalingOptions()
	}
	return cfg
}

// ModelSet holds every model created for one application. It is an alias
// for the pipeline's model set: the staged pipeline owns model creation,
// core keeps the name for its facade API.
type ModelSet = pipeline.ModelSet

// Campaign describes one end-to-end measurement and modeling campaign on
// the simulated substrate: profile the benchmark at the modeling ranks
// (with repetitions), create models, and additionally measure the
// evaluation ranks for assessing predictive power.
type Campaign struct {
	// Benchmark is the application under study.
	Benchmark engine.Benchmark
	// Config is the run-configuration template; its Ranks field is
	// overwritten per measured point.
	Config engine.RunConfig
	// ModelingRanks are the rank counts used for model creation
	// (the paper's P(x₁), e.g. {2,4,6,8,10}).
	ModelingRanks []int
	// EvalRanks are the additional rank counts measured to evaluate
	// predictive power (the paper's P⁺).
	EvalRanks []int
	// Reps is the number of measurement repetitions per configuration
	// (the paper uses 5).
	Reps int
	// Options configures the pipeline; zero fields take pipeline.New's
	// defaults, except that an unset Modeling in a strong-scaling campaign
	// selects modeling.StrongScalingOptions.
	Options pipeline.Config
}

// Validate checks the campaign. The paper's minimum of five modeling
// configurations applies unless the campaign's modeling options lower it
// explicitly (e.g. for the modeling-point ablation).
func (c Campaign) Validate() error {
	if err := c.Benchmark.Validate(); err != nil {
		return err
	}
	if min := c.Options.Modeling.EffectiveMinPoints(); len(c.ModelingRanks) < min {
		return fmt.Errorf("core: %d modeling ranks, need at least %d", len(c.ModelingRanks), min)
	}
	if c.Reps < 1 {
		return fmt.Errorf("core: %d repetitions", c.Reps)
	}
	return nil
}

// CampaignResult is the outcome of RunCampaign.
type CampaignResult struct {
	// Models are the models fitted on the modeling ranks.
	Models *ModelSet
	// AppActuals holds the derived per-epoch application values measured
	// at every rank count (modeling and evaluation points): callpath →
	// ranks → per-repetition values.
	AppActuals map[string]map[int][]float64
	// Aggregates are the per-configuration aggregation results for all
	// measured points, sorted by point.
	Aggregates []*aggregate.ConfigAggregate
}

// ActualMedian returns the median measured value of an application series
// at the given rank count.
func (r *CampaignResult) ActualMedian(callpath string, ranks int) (float64, bool) {
	byRanks, ok := r.AppActuals[callpath]
	if !ok {
		return 0, false
	}
	reps, ok := byRanks[ranks]
	if !ok || len(reps) == 0 {
		return 0, false
	}
	med := append([]float64(nil), reps...)
	sort.Float64s(med)
	n := len(med)
	if n%2 == 1 {
		return med[n/2], true
	}
	return med[n/2-1]/2 + med[n/2]/2, true
}

// PercentError returns the model's absolute percentage error against the
// measured median of an application series at the given rank count.
func (r *CampaignResult) PercentError(callpath string, ranks int) (float64, bool) {
	m, ok := r.Models.App[callpath]
	if !ok {
		return 0, false
	}
	actual, ok := r.ActualMedian(callpath, ranks)
	if !ok || actual == 0 {
		return 0, false
	}
	pred := m.Predict(float64(ranks))
	diff := pred - actual
	if diff < 0 {
		diff = -diff
	}
	return diff / actual * 100, true
}

// RunCampaign executes the campaign: simulated sampled profiling at every
// modeling and evaluation rank count with the configured repetitions,
// aggregation, extrapolation, and model creation on the modeling subset.
func RunCampaign(c Campaign) (*CampaignResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	pl := pipeline.New(campaignConfig(c.Options, !c.Config.WeakScaling))
	ctx := context.Background()

	modelingSet := make(map[int]bool, len(c.ModelingRanks))
	allRanks := append([]int(nil), c.ModelingRanks...)
	for _, r := range c.ModelingRanks {
		modelingSet[r] = true
	}
	for _, r := range c.EvalRanks {
		if !modelingSet[r] {
			allRanks = append(allRanks, r)
		}
	}

	var profiles []*profile.Profile
	for _, ranks := range allRanks {
		cfg := c.Config
		cfg.Ranks = ranks
		for rep := 1; rep <= c.Reps; rep++ {
			ps, err := engine.Profile(c.Benchmark, cfg, rep, true)
			if err != nil {
				return nil, fmt.Errorf("core: profiling %d ranks rep %d: %w", ranks, rep, err)
			}
			profiles = append(profiles, ps...)
		}
	}
	allAggs, err := pl.Aggregate(ctx, profiles)
	if err != nil {
		return nil, err
	}
	var modelingAggs []*aggregate.ConfigAggregate
	for _, agg := range allAggs {
		if modelingSet[int(agg.Point[0])] {
			modelingAggs = append(modelingAggs, agg)
		}
	}

	setup := engine.SetupFunc(c.Benchmark, c.Config.Strategy, c.Config.WeakScaling)
	models, err := pl.BuildModels(ctx, modelingAggs, setup)
	if err != nil {
		return nil, err
	}

	// Derived actual per-epoch values at every point for evaluation.
	appAll, err := epoch.BuildApplicationExperiment(allAggs, setup)
	if err != nil {
		return nil, err
	}
	actuals := make(map[string]map[int][]float64)
	for _, path := range appAll.Callpaths(measurement.MetricTime) {
		byRanks := make(map[int][]float64)
		s := appAll.Series(measurement.MetricTime, path)
		for _, sm := range s.Samples {
			byRanks[int(sm.Point[0])] = append([]float64(nil), sm.Reps...)
		}
		actuals[path] = byRanks
	}
	return &CampaignResult{Models: models, AppActuals: actuals, Aggregates: allAggs}, nil
}
