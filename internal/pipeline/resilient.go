package pipeline

import (
	"context"
	"errors"
	"fmt"

	"extradeep/internal/resilience"
)

// clock resolves the configured resilience clock (wall clock by default).
func (p *Pipeline) clock() resilience.Clock {
	if p.cfg.Clock == nil {
		return resilience.WallClock{}
	}
	return p.cfg.Clock
}

// runStage executes one pipeline stage exactly once, as an observed
// stage invocation: it derives the stage's deadline context, fires the
// stage-entry injection point, and recovers panics into typed fatal
// errors. A blown stage budget fails the stage with the retryable class
// — the caller may rerun it; nothing in-process does — unless the
// caller's own context ended, which stays fatal (the caller asked the run
// to stop). A context that is already done fails the stage, typed fatal,
// without running it.
func (p *Pipeline) runStage(ctx context.Context, s Stage, fn func(ctx context.Context) (Counters, error)) error {
	if err := resilience.CauseOrErr(ctx); err != nil {
		return resilience.Wrap(resilience.ClassFatal, string(s), err)
	}
	return p.observe(s, func() (counters Counters, err error) {
		sctx := ctx
		cancel := context.CancelFunc(func() {})
		if p.cfg.StageTimeout > 0 {
			sctx, cancel = p.clock().WithTimeout(ctx, p.cfg.StageTimeout)
		}
		defer func() {
			if r := recover(); r != nil {
				counters, err = nil, resilience.Errorf(resilience.ClassFatal, string(s), "stage panicked: %v", r)
			}
			deadline := err != nil && ctx.Err() == nil && sctx.Err() != nil &&
				errors.Is(context.Cause(sctx), context.DeadlineExceeded)
			cancel()
			if deadline {
				err = resilience.Wrap(resilience.ClassRetryable, string(s),
					fmt.Errorf("stage deadline exceeded after %v: %w", p.cfg.StageTimeout, context.DeadlineExceeded))
			}
		}()
		if ierr := p.cfg.Injector.At(sctx, string(s)); ierr != nil {
			return nil, ierr
		}
		return fn(sctx)
	})
}

// Fit-failure classes recorded in ModelSet.Skipped and checkpoint task
// records.
const (
	// FailurePanic marks a per-kernel fit that panicked and was
	// quarantined; the run completed partially.
	FailurePanic = "panic"
	// FailureDegraded marks a per-kernel fit that failed with the
	// degraded class (injected or wrapped); the run completed partially.
	FailureDegraded = "degraded"
	// FailureUnmodelable marks a series the hypothesis search rejects
	// (degenerate data). This is the historical silent skip: it does NOT
	// make the run partial.
	FailureUnmodelable = "unmodelable"
)

// FitFailure names one per-kernel fit that produced no model, with its
// failure class — the report's quarantine section and the partial-success
// exit code are derived from these.
type FitFailure struct {
	// Metric and Callpath identify the series.
	Metric string
	// Callpath is the kernel callpath (or the synthetic application path).
	Callpath string
	// App marks application-level series.
	App bool
	// Class is one of FailurePanic, FailureDegraded, FailureUnmodelable.
	Class string
	// Reason is the failure detail.
	Reason string
}

// Degraded reports whether any fit failure quarantined a kernel (panic or
// degraded class). Unmodelable series are the historical silent skip and
// do not count: a run that only skips degenerate series is a full
// success, exactly as before the resilience layer existed.
func (m *ModelSet) Degraded() bool {
	for _, f := range m.Skipped {
		if f.Class != FailureUnmodelable {
			return true
		}
	}
	return false
}

// fitTaskPoint names the injection point of fit task i, in sorted task
// order — "fit:task:3" is the fourth (metric, callpath) series.
func fitTaskPoint(i int) string { return fmt.Sprintf("fit:task:%d", i) }

// InjectionPoints returns every injection-point name a full pipeline run
// with n fit tasks exposes, for seed-derived schedules (EDFAULT_SEED).
func InjectionPoints(fitTasks int) []string {
	pts := []string{
		string(StageIngest), string(StageAggregate), string(StageEpoch),
		string(StageFit), string(StageAnalyze), string(StageReport),
	}
	for i := 0; i < fitTasks; i++ {
		pts = append(pts, fitTaskPoint(i))
	}
	return pts
}
