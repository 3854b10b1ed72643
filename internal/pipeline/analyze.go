package pipeline

import (
	"context"
	"errors"
	"sort"

	"extradeep/internal/aggregate"
	"extradeep/internal/analysis"
	"extradeep/internal/epoch"
	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
)

// AnalyzeOptions configures the Analyze stage — the Section 3 questions
// asked of the fitted models.
type AnalyzeOptions struct {
	// Predict, when > 0, additionally predicts the training time per
	// epoch at this rank count (Q1).
	Predict float64
	// Budget bounds the cost-effectiveness search in core-hours
	// (0 = unbounded).
	Budget float64
	// MaxTime bounds the acceptable training time per epoch in seconds
	// (0 = unbounded).
	MaxTime float64
	// CoresPerRank is the ϱ of the cost model (from the measured system).
	CoresPerRank float64
	// TopKernels is the length of the bottleneck ranking shown in the
	// report; 0 means 10.
	TopKernels int
}

// Prediction is one Q1 answer: the predicted value with its confidence
// interval.
type Prediction struct {
	Ranks    float64
	Value    float64
	Lo, Hi   float64
	CILevel  float64
	HasValue bool
}

// ConfigRow is one line of the scalability-and-cost table: a measured
// configuration with its modeled time, efficiency and cost.
type ConfigRow struct {
	Ranks      float64
	Time       float64
	Efficiency float64
	Cost       float64
}

// AnalysisResult carries everything the Analyze stage derives;
// RenderContext turns it into the text report.
type AnalysisResult struct {
	// Models are the fitted models the analysis ran on.
	Models *ModelSet
	// AppModel is the application runtime model (epoch.AppPath).
	AppModel *modeling.Model
	// Baseline and MaxPoint span the measured range the rankings cover.
	Baseline, MaxPoint measurement.Point
	// RankedGrowth is the bottleneck ranking (Section 3.1).
	RankedGrowth []analysis.RankedKernel
	// RankedSpeedup orders kernels by achieved speedup (Eq. 11).
	RankedSpeedup []analysis.SpeedupRankedKernel
	// Prediction is the optional Q1 extrapolation.
	Prediction Prediction
	// Rows is the per-configuration scalability and cost table.
	Rows []ConfigRow
	// CostEffective is the Q5 answer; CostEffectiveErr is set instead
	// when no configuration meets the constraints (a reportable outcome,
	// not a pipeline failure).
	CostEffective    analysis.Feasibility
	CostEffectiveErr error
	// TopKernels is the ranking length the report shows.
	TopKernels int
}

// Analyze derives scalability, efficiency, cost and bottleneck results
// (Section 3, Q1–Q5) from the fitted models over the measured
// configurations.
func (p *Pipeline) Analyze(ctx context.Context, models *ModelSet, aggs []*aggregate.ConfigAggregate, opts AnalyzeOptions) (*AnalysisResult, error) {
	res := &AnalysisResult{Models: models, TopKernels: opts.TopKernels}
	if res.TopKernels <= 0 {
		res.TopKernels = 10
	}
	err := p.runStage(ctx, StageAnalyze, func(sctx context.Context) (Counters, error) {
		if len(aggs) == 0 {
			return nil, errors.New("pipeline: no aggregated configurations to analyze")
		}
		appModel, ok := models.App[epoch.AppPath]
		if !ok {
			return nil, errors.New("pipeline: no application runtime model")
		}
		res.AppModel = appModel
		res.Baseline = aggs[0].Point.Clone()
		res.MaxPoint = aggs[len(aggs)-1].Point.Clone()

		timeModels := models.Kernel[measurement.MetricTime]
		res.RankedGrowth = analysis.RankByGrowth(timeModels, res.Baseline, res.MaxPoint)
		res.RankedSpeedup = analysis.RankBySpeedup(timeModels, res.Baseline, res.MaxPoint)

		if opts.Predict > 0 {
			lo, hi := appModel.PredictInterval(0.95, opts.Predict)
			res.Prediction = Prediction{
				Ranks:    opts.Predict,
				Value:    appModel.Predict(opts.Predict),
				Lo:       lo,
				Hi:       hi,
				CILevel:  0.95,
				HasValue: true,
			}
		}

		var xs []float64
		for _, agg := range aggs {
			xs = append(xs, agg.Point[0])
		}
		sort.Float64s(xs)
		effs, err := analysis.Efficiencies(appModel.Function, xs)
		if err != nil {
			return nil, err
		}
		cm := analysis.CostModel{Runtime: appModel.Function, CoresPerRank: opts.CoresPerRank}
		res.Rows = make([]ConfigRow, len(xs))
		for i, x := range xs {
			res.Rows[i] = ConfigRow{
				Ranks:      x,
				Time:       appModel.Predict(x),
				Efficiency: effs[i],
				Cost:       cm.CoreHours(x),
			}
		}

		best, err := analysis.MostCostEffective(appModel.Function, cm, xs, analysis.Constraint{MaxTime: opts.MaxTime, Budget: opts.Budget})
		if err != nil {
			res.CostEffectiveErr = err
		} else {
			res.CostEffective = best
		}
		return Counters{"kernels_ranked": len(res.RankedGrowth), "configurations": len(res.Rows)}, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
