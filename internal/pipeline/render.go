package pipeline

import (
	"context"
	"fmt"
	"strings"

	"extradeep/internal/epoch"
)

// renderAnalysis writes the report sections in their fixed order:
// application models, bottleneck ranking, least-benefit ranking, optional
// prediction, scalability/cost table, cost-effectiveness.
func renderAnalysis(b *strings.Builder, res *AnalysisResult) {
	fmt.Fprintf(b, "\napplication models (training time per epoch):\n")
	for _, path := range []string{epoch.AppPath, epoch.CompPath, epoch.CommPath, epoch.MemPath} {
		if m, ok := res.Models.App[path]; ok {
			fmt.Fprintf(b, "  %-20s T(p) = %s   (CV-SMAPE %.2f%%, R² %.4f)\n", path, m.Function, m.SMAPE, m.R2)
		}
	}

	fmt.Fprintf(b, "\ntop %d kernels by growth trend (%s -> %s):\n", res.TopKernels, res.Baseline.Key(), res.MaxPoint.Key())
	for i, k := range res.RankedGrowth {
		if i >= res.TopKernels {
			break
		}
		fmt.Fprintf(b, "  %2d. %-55s ×%-8.2f %s  %s\n", i+1, k.Callpath, k.GrowthFactor, k.Growth, k.Model.Function)
	}

	// Kernels ranked by achieved speedup: which functions benefit least
	// from scaling up (Section 3.1)?
	if n := len(res.RankedSpeedup); n > 0 {
		fmt.Fprintf(b, "\nkernels benefiting least from scaling up (Δ %s -> %s):\n", res.Baseline.Key(), res.MaxPoint.Key())
		shown := 0
		for i := n - 1; i >= 0 && shown < 5; i-- {
			k := res.RankedSpeedup[i]
			fmt.Fprintf(b, "  %-55s Δ = %+.1f%%\n", k.Callpath, k.SpeedupPct)
			shown++
		}
	}

	if res.Prediction.HasValue {
		fmt.Fprintf(b, "\npredicted training time per epoch @ %.0f ranks: %.2f s (95%% CI [%.2f, %.2f])\n",
			res.Prediction.Ranks, res.Prediction.Value, res.Prediction.Lo, res.Prediction.Hi)
	}

	fmt.Fprintf(b, "\nscalability and cost per measured configuration:\n")
	fmt.Fprintf(b, "  %6s  %12s  %12s  %12s\n", "ranks", "T(p) [s]", "efficiency", "cost [core-h]")
	for _, row := range res.Rows {
		fmt.Fprintf(b, "  %6.0f  %12.2f  %12.3f  %12.3f\n", row.Ranks, row.Time, row.Efficiency, row.Cost)
	}

	if res.CostEffectiveErr != nil {
		fmt.Fprintf(b, "\ncost-effectiveness: %v\n", res.CostEffectiveErr)
	} else {
		best := res.CostEffective
		fmt.Fprintf(b, "\nmost cost-effective configuration: %.0f ranks (T = %.2f s, cost = %.3f core-h, efficiency %.3f)\n",
			best.Ranks, best.Time, best.Cost, best.Efficiency)
	}

	renderQuarantine(b, res.Models)
}

// renderQuarantine names every quarantined kernel with its failure
// class. It renders nothing for fully successful runs — including runs
// that only skipped unmodelable series, the historical silent skip — so
// existing report outputs are byte-identical.
func renderQuarantine(b *strings.Builder, ms *ModelSet) {
	if ms == nil || !ms.Degraded() {
		return
	}
	fmt.Fprintf(b, "\nquarantined kernels (run completed partially):\n")
	for _, f := range ms.Skipped {
		if f.Class == FailureUnmodelable {
			continue
		}
		kind := "kernel"
		if f.App {
			kind = "app"
		}
		fmt.Fprintf(b, "  %-6s %-8s %-55s class=%-8s %s\n", kind, f.Metric, f.Callpath, f.Class, f.Reason)
	}
}

// RenderContext is the Report stage: it turns an AnalysisResult into the
// text report the extradeep CLI prints, under the resilience policy
// (injection point "report", deadline budget). The output depends only on
// the result values, never on timing or scheduling — this is where the
// pipeline's byte-identical determinism guarantee is observable.
func (p *Pipeline) RenderContext(ctx context.Context, res *AnalysisResult) (string, error) {
	var b strings.Builder
	err := p.runStage(ctx, StageReport, func(sctx context.Context) (Counters, error) {
		renderAnalysis(&b, res)
		return Counters{"bytes": b.Len()}, nil
	})
	if err != nil {
		return "", err
	}
	return b.String(), nil
}
