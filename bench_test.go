// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 4) plus the ablation studies called out in
// DESIGN.md. Each benchmark regenerates the artifact end to end — from
// simulated profiling through aggregation, extrapolation, model creation
// and analysis — and reports the headline quantity of that artifact as a
// custom metric, so `go test -bench=. -benchmem` doubles as the
// reproduction run.
package extradeep_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"extradeep/internal/aggregate"
	"extradeep/internal/core"
	"extradeep/internal/epoch"
	"extradeep/internal/experiments"
	"extradeep/internal/ingest"
	"extradeep/internal/modeling"
	"extradeep/internal/pipeline"
	"extradeep/internal/profile"
	"extradeep/internal/resilience"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// benchSeed keeps all artifacts on a single reproducible measurement set.
const benchSeed = 7

// BenchmarkCaseStudy regenerates the Sections 2–3 running example (E1,
// E9, E10): the ResNet-50/CIFAR-10 weak-scaling models answering Q1–Q5.
// Reported metric: the Q1 prediction error proxy — the model's percentage
// error at the farthest evaluation point (64 ranks).
func BenchmarkCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs, err := experiments.CaseStudy(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cs.Errors[64], "pct_err@64")
		b.ReportMetric(cs.CommAt64/cs.CommAt2, "comm_growth_2to64")
	}
}

// BenchmarkFigure3 regenerates Fig. 3 (E2): model vs. measured training
// time with confidence intervals. Reported metric: the fraction of
// measured points inside the 95% CI.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure3(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		within := 0
		for _, p := range f.Points {
			if p.WithinCI {
				within++
			}
		}
		b.ReportMetric(float64(within)/float64(len(f.Points)), "within_ci_frac")
	}
}

// BenchmarkFigure4b regenerates the cost-effectiveness example (E3).
// Reported metric: the selected configuration's node count.
func BenchmarkFigure4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure4b(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Best.Ranks, "best_nodes")
	}
}

// BenchmarkFigure5 regenerates the parallel-strategy comparison on JURECA
// (E4) across all five benchmarks, weak and strong scaling. Reported
// metric: the worst strategy MPE at 64 nodes (paper: 18.4%).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure5(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, byNode := range f.MPE {
			if v := byNode[64]; v > worst {
				worst = v
			}
		}
		b.ReportMetric(worst, "worst_mpe@64nodes")
	}
}

// BenchmarkFigure6 regenerates the DEEP-vs-JURECA comparison (E5).
// Reported metric: JURECA's MPE at 64 nodes (paper: 15.4%).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure6(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.MPE["JURECA"][64], "jureca_mpe@64nodes")
	}
}

// BenchmarkFigure7 regenerates the per-benchmark predictive-power study on
// DEEP (E6). Reported metric: the spread between the worst and best
// benchmark error at 64 nodes (paper: 4.1%).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure7(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		min, max := 1e18, 0.0
		for _, byNode := range f.Error {
			v := byNode[64]
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		b.ReportMetric(max-min, "err_spread@64nodes")
	}
}

// BenchmarkFigure8 regenerates the profiling-overhead study (E7).
// Reported metric: the average profiling-time reduction (paper: 94.9%).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.AvgSavings*100, "avg_savings_pct")
	}
}

// BenchmarkTable2 regenerates the per-model-type accuracy table (E8).
// Reported metric: the CUDA-kernel time MPE at 64 nodes (paper: 15.6%).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Key.Group == "CUDA kernels" && string(row.Key.Metric) == "time" {
				b.ReportMetric(row.MPE[64], "cuda_time_mpe@64nodes")
			}
		}
	}
}

// BenchmarkSummary regenerates the Section 4.3 headline numbers (E11).
// Reported metrics: average model accuracy (paper: 97.6%) and average
// prediction accuracy at 4× scale (paper: 93.6%).
func BenchmarkSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Summary(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.ModelAccuracy, "model_acc_pct")
		b.ReportMetric(s.PredictionAccuracy, "pred_acc_pct")
	}
}

// BenchmarkBaselines regenerates the baseline comparison (Extra-Deep vs.
// full-run Extra-P-style profiling vs. PALEO-style analytical modeling).
// Reported metrics: each approach's MPE over the evaluation points and the
// profiling-cost ratio.
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Baselines(benchSeed, "cifar10")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ExtraDeepMPE, "extradeep_mpe")
		b.ReportMetric(r.FullProfilingMPE, "fullprof_mpe")
		b.ReportMetric(r.AnalyticalMPE, "analytical_mpe")
		b.ReportMetric(r.ProfiledSecondsFull/r.ProfiledSecondsSampled, "profiling_cost_ratio")
	}
}

// ---------------------------------------------------------------------
// Ablation benches (DESIGN.md §5) — each varies one design choice of the
// pipeline and reports the resulting prediction error at 64 ranks on the
// CIFAR-10/DEEP weak-scaling campaign.
// ---------------------------------------------------------------------

// ablationCampaign builds the shared CIFAR-10 campaign.
func ablationCampaign(b *testing.B) core.Campaign {
	b.Helper()
	bench, err := engine.ByName("cifar10")
	if err != nil {
		b.Fatal(err)
	}
	return core.Campaign{
		Benchmark: bench,
		Config: engine.RunConfig{
			System:      hardware.DEEP(),
			Strategy:    parallel.DataParallel{FusionBuckets: 4},
			WeakScaling: true,
			Seed:        benchSeed,
			SampleRanks: 4,
		},
		ModelingRanks: []int{2, 4, 6, 8, 10},
		EvalRanks:     []int{64},
		Reps:          5,
	}
}

func runAblation(b *testing.B, camp core.Campaign) float64 {
	b.Helper()
	res, err := core.RunCampaign(camp)
	if err != nil {
		b.Fatal(err)
	}
	e, ok := res.PercentError(epoch.AppPath, 64)
	if !ok {
		b.Fatal("no prediction error at 64 ranks")
	}
	return e
}

// BenchmarkAblationAggregator compares median against mean aggregation
// across steps, ranks and repetitions (the noise-resilience design choice
// of Fig. 2).
func BenchmarkAblationAggregator(b *testing.B) {
	for _, useMean := range []bool{false, true} {
		name := "median"
		if useMean {
			name = "mean"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp := ablationCampaign(b)
				agg, fit := aggregate.DefaultOptions(), modeling.DefaultOptions()
				agg.UseMean, fit.UseMean = useMean, useMean
				camp.Options = pipeline.Config{Aggregation: agg, Modeling: fit}
				b.ReportMetric(runAblation(b, camp), "pct_err@64")
			}
		})
	}
}

// BenchmarkAblationSteps varies how many training steps per epoch the
// efficient sampling strategy profiles (the paper uses 5).
func BenchmarkAblationSteps(b *testing.B) {
	for _, steps := range []int{1, 3, 5, 10} {
		b.Run(map[int]string{1: "1step", 3: "3steps", 5: "5steps", 10: "10steps"}[steps], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp := ablationCampaign(b)
				camp.Config.ProfileSteps = steps
				b.ReportMetric(runAblation(b, camp), "pct_err@64")
			}
		})
	}
}

// BenchmarkAblationSearchSpace varies the PMNF hypothesis search space
// (reduced integer exponents / the Extra-P default / two-term models).
func BenchmarkAblationSearchSpace(b *testing.B) {
	spaces := []struct {
		name string
		opts modeling.Options
	}{
		{"small", modeling.SmallOptions()},
		{"default", modeling.DefaultOptions()},
		{"large", modeling.LargeOptions()},
	}
	for _, space := range spaces {
		b.Run(space.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp := ablationCampaign(b)
				camp.Options = pipeline.Config{Modeling: space.opts}
				b.ReportMetric(runAblation(b, camp), "pct_err@64")
			}
		})
	}
}

// BenchmarkAblationPoints varies the number of modeling points (the paper
// requires at least 5 to separate logarithmic, linear and polynomial
// growth).
func BenchmarkAblationPoints(b *testing.B) {
	sets := map[string][]int{
		"4points": {2, 4, 6, 8},
		"5points": {2, 4, 6, 8, 10},
		"6points": {2, 4, 6, 8, 10, 12},
		"8points": {2, 4, 6, 8, 10, 12, 16, 24},
	}
	for _, name := range []string{"4points", "5points", "6points", "8points"} {
		ranks := sets[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp := ablationCampaign(b)
				camp.ModelingRanks = ranks
				fit := modeling.DefaultOptions()
				fit.MinPoints = len(ranks)
				camp.Options = pipeline.Config{Modeling: fit}
				b.ReportMetric(runAblation(b, camp), "pct_err@64")
			}
		})
	}
}

// BenchmarkPipelineOnly measures the modeling pipeline itself (aggregation
// through model selection) without the simulation, quantifying the
// tool-side cost per campaign.
func BenchmarkPipelineOnly(b *testing.B) {
	bench, err := engine.ByName("cifar10")
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.RunConfig{
		System:      hardware.DEEP(),
		Strategy:    parallel.DataParallel{FusionBuckets: 4},
		WeakScaling: true,
		Seed:        benchSeed,
		SampleRanks: 4,
	}
	// Pre-generate the profiles once.
	var allProfiles []*profile.Profile
	for _, ranks := range []int{2, 4, 6, 8, 10} {
		cfg.Ranks = ranks
		for rep := 1; rep <= 5; rep++ {
			ps, err := engine.Profile(bench, cfg, rep, true)
			if err != nil {
				b.Fatal(err)
			}
			allProfiles = append(allProfiles, ps...)
		}
	}
	setup := engine.SetupFunc(bench, cfg.Strategy, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := pipeline.New(pipeline.Config{})
		aggs, err := pl.Aggregate(context.Background(), allProfiles)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.BuildModels(context.Background(), aggs, setup); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineResilience quantifies the resilience layer's cost on
// the BenchmarkPipelineOnly campaign (BENCH_resilience.json tracks the
// trajectory):
//
//	off        zero-valued config — the hooks reduce to context checks
//	armed      injector armed (empty schedule) + stage deadline
//	checkpoint armed plus incremental campaign checkpointing (fresh store)
//	resume     armed plus resume over a fully warm store (no refitting)
//
// The off→armed gap is the pure hook overhead the resilience layer adds
// to every run; the gate expectation is ≤ 2% of the ~30ms/op baseline.
func BenchmarkPipelineResilience(b *testing.B) {
	bench, err := engine.ByName("cifar10")
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.RunConfig{
		System:      hardware.DEEP(),
		Strategy:    parallel.DataParallel{FusionBuckets: 4},
		WeakScaling: true,
		Seed:        benchSeed,
		SampleRanks: 4,
	}
	var allProfiles []*profile.Profile
	for _, ranks := range []int{2, 4, 6, 8, 10} {
		cfg.Ranks = ranks
		for rep := 1; rep <= 5; rep++ {
			ps, err := engine.Profile(bench, cfg, rep, true)
			if err != nil {
				b.Fatal(err)
			}
			allProfiles = append(allProfiles, ps...)
		}
	}
	setup := engine.SetupFunc(bench, cfg.Strategy, true)
	aggs, err := pipeline.New(pipeline.Config{}).Aggregate(context.Background(), allProfiles)
	if err != nil {
		b.Fatal(err)
	}
	armed := func() pipeline.Config {
		return pipeline.Config{
			Injector:     resilience.NewInjector(nil),
			StageTimeout: time.Hour,
		}
	}
	runOnce := func(b *testing.B, cfg pipeline.Config) {
		b.Helper()
		if _, err := pipeline.New(cfg).BuildModels(context.Background(), aggs, setup); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, pipeline.Config{})
		}
	})
	b.Run("armed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, armed())
		}
	})
	b.Run("checkpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := armed()
			cfg.CheckpointDir = b.TempDir()
			runOnce(b, cfg)
		}
	})
	b.Run("resume", func(b *testing.B) {
		dir := b.TempDir()
		warm := armed()
		warm.CheckpointDir = dir
		runOnce(b, warm)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := armed()
			cfg.CheckpointDir = dir
			cfg.Resume = true
			runOnce(b, cfg)
		}
	})
}

// BenchmarkParallelFit measures the fit stage's worker-pool scaling: the
// same multi-kernel campaign (cifar10, 5 configurations × 5 repetitions)
// modeled sequentially (-j 1) and with growing pool sizes. The outputs are
// byte-identical across pool sizes; only wall-clock should move.
func BenchmarkParallelFit(b *testing.B) {
	bench, err := engine.ByName("cifar10")
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.RunConfig{
		System:      hardware.DEEP(),
		Strategy:    parallel.DataParallel{FusionBuckets: 4},
		WeakScaling: true,
		Seed:        benchSeed,
		SampleRanks: 4,
	}
	var allProfiles []*profile.Profile
	for _, ranks := range []int{2, 4, 6, 8, 10} {
		cfg.Ranks = ranks
		for rep := 1; rep <= 5; rep++ {
			ps, err := engine.Profile(bench, cfg, rep, true)
			if err != nil {
				b.Fatal(err)
			}
			allProfiles = append(allProfiles, ps...)
		}
	}
	setup := engine.SetupFunc(bench, cfg.Strategy, true)
	aggs, err := pipeline.New(pipeline.Config{}).Aggregate(context.Background(), allProfiles)
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.New(pipeline.Config{Workers: jobs}).BuildModels(context.Background(), aggs, setup); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gridProfiles simulates a ranks × per-worker-batch grid campaign of the
// cifar10 benchmark (one repetition, one sampled rank per cell; ranks
// {2, 4, …, 2k} and batches {32, 64, …, 32k}), perfbench's batch-grid
// corpus at k = 5.
func gridProfiles(tb testing.TB, k int) ([]*profile.Profile, engine.Benchmark, engine.RunConfig) {
	tb.Helper()
	bench, err := engine.ByName("cifar10")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := engine.RunConfig{
		System:      hardware.DEEP(),
		Strategy:    parallel.DataParallel{},
		WeakScaling: true,
		Seed:        benchSeed,
		SampleRanks: 1,
	}
	var profiles []*profile.Profile
	for i := 1; i <= k; i++ {
		for j := 1; j <= k; j++ {
			cell := bench
			cell.BatchSize = 32 * j
			c := cfg
			c.Ranks = 2 * i
			c.ProfileParams = []string{"p", "b"}
			c.ProfilePoint = []float64{float64(2 * i), float64(32 * j)}
			ps, err := engine.Profile(cell, c, 1, true)
			if err != nil {
				tb.Fatal(err)
			}
			profiles = append(profiles, ps...)
		}
	}
	return profiles, bench, cfg
}

// gridCampaign aggregates gridProfiles(k) as the batch path does before
// its fit stage.
func gridCampaign(tb testing.TB, k int) ([]*aggregate.ConfigAggregate, epoch.SetupFunc) {
	tb.Helper()
	profiles, bench, cfg := gridProfiles(tb, k)
	aggs, err := pipeline.New(pipeline.Config{}).Aggregate(context.Background(), profiles)
	if err != nil {
		tb.Fatal(err)
	}
	return aggs, core.GridSetup(bench, cfg)
}

// caseStudyProfiles simulates perfbench's serve-upload corpus: the
// cifar10 weak-scaling case study at 2–10 ranks, five repetitions with up
// to four sampled ranks each (90 profiles).
func caseStudyProfiles(tb testing.TB) []*profile.Profile {
	tb.Helper()
	bench, err := engine.ByName("cifar10")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := engine.RunConfig{
		System:      hardware.DEEP(),
		Strategy:    parallel.DataParallel{},
		WeakScaling: true,
		Seed:        benchSeed,
		SampleRanks: 4,
	}
	var profiles []*profile.Profile
	for _, ranks := range []int{2, 4, 6, 8, 10} {
		cfg.Ranks = ranks
		for rep := 1; rep <= 5; rep++ {
			ps, err := engine.Profile(bench, cfg, rep, true)
			if err != nil {
				tb.Fatal(err)
			}
			profiles = append(profiles, ps...)
		}
	}
	return profiles
}

// BenchmarkAggregate measures the Aggregate stage (Fig. 2 steps 1–3) on
// one worker over the 5×5 grid corpus (25 configurations of one profile
// each) and the 90-profile case study (5 configurations of 5
// repetitions × up to 4 ranks).
func BenchmarkAggregate(b *testing.B) {
	corpora := []struct {
		name     string
		profiles func(testing.TB) []*profile.Profile
	}{
		{"grid5x5", func(tb testing.TB) []*profile.Profile { ps, _, _ := gridProfiles(tb, 5); return ps }},
		{"casestudy", caseStudyProfiles},
	}
	for _, c := range corpora {
		b.Run(c.name, func(b *testing.B) {
			profiles := c.profiles(b)
			pl := pipeline.New(pipeline.Config{Workers: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pl.Aggregate(context.Background(), profiles); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// writeCorpus writes profiles into a fresh temporary directory, as a
// profiling campaign leaves them, and returns the directory.
func writeCorpus(tb testing.TB, profiles []*profile.Profile) string {
	tb.Helper()
	store := &profile.Store{Dir: tb.TempDir()}
	for _, p := range profiles {
		if err := store.Write(p); err != nil {
			tb.Fatal(err)
		}
	}
	return store.Dir
}

// ingestCorpora are the two corpora BenchmarkIngest and the ingest
// allocation test load: the 5×5 grid (25 files) and the case study (90).
var ingestCorpora = []struct {
	name     string
	profiles func(testing.TB) []*profile.Profile
}{
	{"grid5x5", func(tb testing.TB) []*profile.Profile { ps, _, _ := gridProfiles(tb, 5); return ps }},
	{"casestudy", caseStudyProfiles},
}

// BenchmarkIngest measures the Ingest stage (read, decode, validate and
// summarize every file, then assemble the report) on one worker over the
// 5×5 grid corpus and the 90-profile case study, written to a temporary
// directory.
func BenchmarkIngest(b *testing.B) {
	for _, c := range ingestCorpora {
		b.Run(c.name, func(b *testing.B) {
			dir := writeCorpus(b, c.profiles(b))
			pl := pipeline.New(pipeline.Config{Workers: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pl.Ingest(context.Background(), dir, "json", ingest.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildModelsGrid measures the fit stage at campaign scale:
// Pipeline.BuildModels (epoch extrapolation + the two-parameter PMNF
// search over every kernel and metric, strong-scaling exponent set as in
// perfbench's batch-grid) on a 5×5 and a 9×9 ranks × batch grid. Each
// leave-one-out fold of the 9×9 grid leaves one of 81 configurations
// out, so the sub-benchmarks show how the cross-validation scales with
// the configuration count.
func BenchmarkBuildModelsGrid(b *testing.B) {
	for _, k := range []int{5, 9} {
		b.Run(fmt.Sprintf("%dx%d", k, k), func(b *testing.B) {
			aggs, setup := gridCampaign(b, k)
			pl := pipeline.New(pipeline.Config{Modeling: modeling.StrongScalingOptions()})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pl.BuildModels(context.Background(), aggs, setup); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
