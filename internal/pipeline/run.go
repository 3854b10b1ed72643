package pipeline

import (
	"context"

	"extradeep/internal/aggregate"
	"extradeep/internal/epoch"
	"extradeep/internal/ingest"
)

// RunSpec describes one end-to-end pipeline run from a profile directory
// to the rendered report.
type RunSpec struct {
	// ProfilesDir and Format locate the profile set.
	ProfilesDir string
	Format      string
	// Ingest configures quarantine policy and the degradation gate.
	Ingest ingest.Options
	// Load, when set, supplies the profile set in place of listing and
	// loading ProfilesDir: the ingest stage calls it with the stage's
	// context and assembles its report from the returned loads, which
	// must be in file-name order. ProfilesDir still names the set in the
	// report and its errors. The Aggregate stage reads each profile's
	// summary when it was built under Config.Aggregation (Pipeline's
	// Aggregation) and its trace otherwise. nil loads and summarizes
	// ProfilesDir, as Ingest does.
	Load func(ctx context.Context) ([]ingest.File, error)
	// Setup derives the training-setup values per configuration
	// (Section 2.3.1).
	Setup epoch.SetupFunc
	// Analyze configures the Section 3 questions.
	Analyze AnalyzeOptions
}

// RunResult carries every intermediate artifact of a full run.
type RunResult struct {
	Ingest     *ingest.Report
	Aggregates []*aggregate.ConfigAggregate
	Models     *ModelSet
	Analysis   *AnalysisResult
	Report     string
}

// Degraded reports whether the run completed partially: some per-kernel
// fits were quarantined (panic or degraded class) but a well-formed
// report over the surviving models was still produced.
func (r *RunResult) Degraded() bool {
	return r != nil && r.Models != nil && r.Models.Degraded()
}

// Run executes the full pipeline: Ingest (with gate) → Aggregate →
// EpochExtrapolate → Fit → Analyze → Report. Gate refusals and ingest
// failures surface with their ingest error types intact so callers keep
// their exit-code semantics.
//
// The run context is wrapped with a cancel cause and armed on the
// configured fault injector, so cancel-kind faults can kill the run at
// exactly their scheduled point — the test double for "the user hit ^C
// here".
func (p *Pipeline) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	p.cfg.Injector.Arm(cancel)

	res := &RunResult{}
	var err error
	if res.Ingest, err = p.ingest(rctx, spec.ProfilesDir, spec.Format, spec.Ingest, spec.Load); err != nil {
		return res, err
	}
	if err = res.Ingest.Gate(spec.Ingest); err != nil {
		return res, err
	}
	if res.Aggregates, err = p.Aggregate(rctx, res.Ingest.Profiles); err != nil {
		return res, err
	}
	if res.Models, err = p.BuildModels(rctx, res.Aggregates, spec.Setup); err != nil {
		return res, err
	}
	if res.Analysis, err = p.Analyze(rctx, res.Models, res.Aggregates, spec.Analyze); err != nil {
		return res, err
	}
	if res.Report, err = p.RenderContext(rctx, res.Analysis); err != nil {
		return res, err
	}
	return res, nil
}
