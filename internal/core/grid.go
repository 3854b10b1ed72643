package core

import (
	"context"
	"fmt"

	"extradeep/internal/aggregate"
	"extradeep/internal/epoch"
	"extradeep/internal/measurement"
	"extradeep/internal/pipeline"
	"extradeep/internal/profile"
	"extradeep/internal/simulator/engine"
)

// GridCampaign measures and models a two-parameter surface T(p, B): the
// number of MPI ranks x₁ and the per-worker batch size x₂, the example the
// paper gives for multi-parameter modeling (Section 2.3: P(x₁,x₂) with
// x₁ = {4,8,…} and x₂ = {32,64,…}). Each grid cell is profiled with the
// efficient sampling strategy and the resulting derived per-epoch values
// are fitted with the multi-parameter PMNF.
type GridCampaign struct {
	// Benchmark is the application under study; its BatchSize is
	// overridden per grid cell.
	Benchmark engine.Benchmark
	// Config is the run-configuration template.
	Config engine.RunConfig
	// Ranks and Batches span the measured grid.
	Ranks   []int
	Batches []int
	// Reps is the number of repetitions per cell.
	Reps int
	// Options configures the pipeline; an unset Modeling selects the
	// paper's defaults with strong-scaling exponents.
	Options pipeline.Config
}

// Validate checks the grid campaign.
func (c GridCampaign) Validate() error {
	if err := c.Benchmark.Validate(); err != nil {
		return err
	}
	if len(c.Ranks) < measurement.MinModelingPoints || len(c.Batches) < measurement.MinModelingPoints {
		return fmt.Errorf("core: grid needs at least %d values per parameter, have %d×%d",
			measurement.MinModelingPoints, len(c.Ranks), len(c.Batches))
	}
	if c.Reps < 1 {
		return fmt.Errorf("core: %d repetitions", c.Reps)
	}
	return nil
}

// GridResult is the outcome of RunGridCampaign.
type GridResult struct {
	// Models are the fitted two-parameter models.
	Models *ModelSet
	// Aggregates are the per-cell aggregation results.
	Aggregates []*aggregate.ConfigAggregate
	// Setup is the epoch-extrapolation setup used, exposed so callers can
	// derive actual values for held-out cells.
	Setup epoch.SetupFunc
}

// RunGridCampaign profiles every (ranks, batch) cell and fits
// multi-parameter models over the grid.
func RunGridCampaign(c GridCampaign) (*GridResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// The batch size enters the per-epoch metric inversely (fewer, bigger
	// steps), so the grid surface needs negative exponents regardless of
	// the scaling mode.
	pl := pipeline.New(campaignConfig(c.Options, true))
	ctx := context.Background()

	var profiles []*profile.Profile
	for _, r := range c.Ranks {
		for _, batch := range c.Batches {
			bench := c.Benchmark
			bench.BatchSize = batch
			cfg := c.Config
			cfg.Ranks = r
			cfg.ProfileParams = []string{"p", "b"}
			cfg.ProfilePoint = []float64{float64(r), float64(batch)}
			for rep := 1; rep <= c.Reps; rep++ {
				ps, err := engine.Profile(bench, cfg, rep, true)
				if err != nil {
					return nil, fmt.Errorf("core: grid cell (%d ranks, batch %d) rep %d: %w", r, batch, rep, err)
				}
				profiles = append(profiles, ps...)
			}
		}
	}
	aggs, err := pl.Aggregate(ctx, profiles)
	if err != nil {
		return nil, err
	}

	setup := GridSetup(c.Benchmark, c.Config)
	models, err := pl.BuildModels(ctx, aggs, setup)
	if err != nil {
		return nil, err
	}
	return &GridResult{Models: models, Aggregates: aggs, Setup: setup}, nil
}

// GridSetup returns the epoch-extrapolation setup for two-parameter grid
// points (ranks, batch): the batch size comes from the point's second
// coordinate rather than the benchmark's default.
func GridSetup(b engine.Benchmark, cfg engine.RunConfig) epoch.SetupFunc {
	return func(point measurement.Point) epoch.Params {
		ranks := int(point[0])
		bench := b
		if len(point) > 1 {
			bench.BatchSize = int(point[1])
		}
		return engine.EpochParams(bench, cfg.Strategy, ranks, cfg.WeakScaling)
	}
}

// ActualAppMedian returns the measured median per-epoch value of an
// application series at the given grid point, derived from the campaign's
// aggregates — useful for validating predictions on held-out cells.
func (r *GridResult) ActualAppMedian(callpath string, point measurement.Point) (float64, bool) {
	s := r.Models.AppExperiment.Series(measurement.MetricTime, callpath)
	if s == nil {
		return 0, false
	}
	sample := s.At(point)
	if sample == nil {
		return 0, false
	}
	return sample.Median()
}
