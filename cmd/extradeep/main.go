// Command extradeep is the Extra-Deep analysis front end: it reads a
// directory of profiles (steps (3)–(5) of the analysis process), runs the
// aggregation pipeline, creates kernel and application performance models,
// and reports scalability, efficiency, cost, and bottleneck analyses.
//
// Usage:
//
//	extradeep -profiles profiles/ -benchmark cifar10 [-weak] [-strict] \
//	          [-predict 40] [-budget 10] [-max-time 600]
//
// The training-setup values (B, D_t, D_v, G, M of Section 2.3.1) are
// derived from the built-in benchmark named with -benchmark; for foreign
// profiles they can be given explicitly with -batch/-train-samples/
// -val-samples/-model-parallel.
//
// Profile loading is fault-tolerant by default (lenient policy): files
// that fail to read, decode or validate are quarantined with a visible
// summary and the analysis proceeds on the surviving set, as long as the
// degradation gate still sees enough distinct configurations for
// modeling. -strict restores the historical all-or-nothing behavior and
// aborts on the first unreadable file.
//
// The run itself is resilient: each stage runs once under an optional
// deadline budget (-stage-timeout) and a stage that overruns it fails the
// run, per-kernel fit panics are quarantined so the run completes
// partially instead of dying, and -checkpoint-dir stores every
// completed fit task as its own content-keyed record, so a rerun with
// -resume reuses every fit it shares with an earlier run — an
// interrupted one or any other campaign — byte-identically. The
// EDFAULT_SCHEDULE and EDFAULT_SEED environment knobs inject
// deterministic faults at stage and fit-task boundaries for testing (see
// internal/resilience).
//
// Exit codes:
//
//	0 — success, including success-with-warnings (files were quarantined
//	    but the surviving set was modelable)
//	1 — any other failure (modeling, I/O, failed -check diagnosis)
//	2 — flag or usage errors (unknown format, benchmark, strategy, …)
//	3 — no usable profile data: the degradation gate refused the
//	    surviving set in lenient mode, or a file failed in -strict mode
//	4 — partial success: the analysis completed and the report was
//	    printed, but one or more per-kernel fits were quarantined
//	    (panicked or failed with the degraded class); the report's
//	    quarantine section names every skipped kernel
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"extradeep/internal/aggregate"
	"extradeep/internal/analysis"
	"extradeep/internal/core"
	"extradeep/internal/diagnose"
	"extradeep/internal/epoch"
	"extradeep/internal/ingest"
	"extradeep/internal/modeling"
	"extradeep/internal/pipeline"
	"extradeep/internal/resilience"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// Process exit codes; see the command doc comment.
const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
	exitNoData  = 3
	exitPartial = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// say, sayf and sayln print best-effort to the chosen writer. The writers
// are os.Stdout/os.Stderr in production and buffers in tests; a failed
// diagnostic write has no sensible recovery in a CLI, so the error is
// deliberately discarded.
func say(w io.Writer, args ...any) {
	_, _ = fmt.Fprint(w, args...)
}

func sayf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func sayln(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

// run executes the command and returns its process exit code. It is
// separated from main so tests can drive the full command line, including
// exit codes, without spawning a process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("extradeep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profilesDir := fs.String("profiles", "profiles", "directory of profile files")
	benchmark := fs.String("benchmark", "", "built-in benchmark name to derive training-setup values from")
	strategyName := fs.String("strategy", "data", "parallel strategy the profiles were produced with")
	weak := fs.Bool("weak", true, "profiles come from weak-scaling runs")
	batch := fs.Float64("batch", 0, "per-worker batch size B (overrides -benchmark)")
	trainSamples := fs.Float64("train-samples", 0, "training-set size D_t (overrides -benchmark)")
	valSamples := fs.Float64("val-samples", 0, "validation-set size D_v (overrides -benchmark)")
	modelParallel := fs.Float64("model-parallel", 1, "degree of model parallelism M")
	predict := fs.Float64("predict", 0, "additionally predict the training time per epoch at this rank count")
	budget := fs.Float64("budget", 0, "budget in core-hours for the cost-effectiveness analysis (0 = unbounded)")
	maxTime := fs.Float64("max-time", 0, "maximum training time per epoch in seconds (0 = unbounded)")
	systemName := fs.String("system", "DEEP", "system the profiles were measured on (for ϱ of the cost model)")
	topKernels := fs.Int("top", 10, "number of kernels to list in the bottleneck ranking")
	format := fs.String("format", "json", "profile format: json (native) or csv (foreign-profiler interchange)")
	saveModels := fs.String("save-models", "", "write the fitted models to this JSON file")
	loadModels := fs.String("models", "", "skip profiling/modeling and load previously saved models from this file (prediction-only mode)")
	checkOnly := fs.Bool("check", false, "diagnose the profile set's measurement quality and exit")
	strict := fs.Bool("strict", false, "abort on the first unreadable profile instead of quarantining it")
	jobs := fs.Int("j", 0, "worker parallelism for profile decode and fit: 0 = all cores, 1 = sequential (output is identical either way)")
	timings := fs.Bool("timings", false, "print per-stage timings and counters to stderr")
	checkpointDir := fs.String("checkpoint-dir", "", "store every completed fit task as a content-keyed record in this directory")
	resume := fs.Bool("resume", false, "reuse completed fit results from -checkpoint-dir (content-keyed, so changed inputs refit)")
	stageTimeout := fs.Duration("stage-timeout", 0, "deadline budget per pipeline stage (0 = none)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	fail := func(err error) int {
		sayln(stderr, "extradeep:", err)
		return exitFailure
	}
	usage := func(err error) int {
		sayln(stderr, "extradeep:", err)
		return exitUsage
	}

	if *loadModels != "" {
		return predictOnly(*loadModels, *predict, *systemName, *budget, *maxTime, stdout, stderr)
	}

	if *format != "json" && *format != "csv" {
		return usage(fmt.Errorf("unknown profile format %q (have json, csv)", *format))
	}
	if *resume && *checkpointDir == "" {
		return usage(fmt.Errorf("-resume requires -checkpoint-dir"))
	}

	// Fault injection (EDFAULT_SCHEDULE / EDFAULT_SEED): a parsed
	// schedule yields an injector whose faults fire at stage and fit-task
	// boundaries; with neither knob set the injector is nil and the hooks
	// are free. Seed-derived schedules draw over the stage points plus the
	// first 32 fit tasks.
	schedule, err := resilience.ScheduleFromEnv(pipeline.InjectionPoints(32))
	if err != nil {
		return usage(err)
	}
	var injector *resilience.Injector
	if len(schedule) > 0 {
		injector = resilience.NewInjector(nil, schedule...)
		sayf(stderr, "extradeep: fault injection active: %s\n", resilience.FormatSchedule(schedule))
	}

	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			return fail(err)
		}
	}

	// The staged analysis pipeline: Ingest → Aggregate → Epoch → Fit →
	// Analyze → Report. -j bounds the decode and fit worker pool;
	// -timings exposes the per-stage observer on stderr.
	var obs pipeline.Observer
	if *timings {
		obs = &pipeline.LogObserver{W: stderr}
	}
	pl := pipeline.New(pipeline.Config{
		Workers:       *jobs,
		Aggregation:   aggregate.DefaultOptions(),
		Modeling:      modeling.DefaultOptions(),
		Observer:      obs,
		Injector:      injector,
		StageTimeout:  *stageTimeout,
		CheckpointDir: *checkpointDir,
		Resume:        *resume,
	})
	// Cancel-kind faults target the armed cancel exactly like a ^C at
	// their scheduled point; without injection this is a plain context.
	ctx, cancelRun := context.WithCancelCause(context.Background())
	defer cancelRun(nil)
	injector.Arm(cancelRun)

	opts := ingest.Options{Policy: ingest.Lenient}
	if *strict {
		opts.Policy = ingest.Strict
	}
	report, err := pl.Ingest(ctx, *profilesDir, *format, opts)
	if err != nil {
		sayln(stderr, "extradeep:", err)
		return exitNoData
	}
	sayf(stdout, "loaded %d profiles from %s\n", len(report.Profiles), *profilesDir)
	if s := report.Summary(); s != "" {
		say(stdout, s)
	}
	if err := report.Gate(opts); err != nil {
		sayln(stderr, "extradeep:", err)
		return exitNoData
	}
	for _, w := range report.Warnings {
		sayf(stdout, "warning: %s\n", w)
	}
	profiles := report.Profiles

	if *checkOnly {
		rep := diagnose.Check(profiles)
		say(stdout, rep.Render())
		if !rep.OK() {
			return exitFailure
		}
		return exitOK
	}

	strat, err := parallel.ByName(*strategyName)
	if err != nil {
		return usage(err)
	}
	setup, err := engine.SetupFromFlags(*benchmark, strat, *weak, *batch, *trainSamples, *valSamples, *modelParallel)
	if err != nil {
		return usage(err)
	}

	aggs, err := pl.Aggregate(ctx, profiles)
	if err != nil {
		return fail(err)
	}
	sayf(stdout, "aggregated %d application configurations\n", len(aggs))

	models, err := pl.BuildModels(ctx, aggs, setup)
	if err != nil {
		return fail(err)
	}
	if *saveModels != "" {
		if err := core.SaveModels(*saveModels, models); err != nil {
			return fail(err)
		}
		sayf(stdout, "saved %d kernel models and %d application models to %s\n",
			models.KernelCount(), len(models.App), *saveModels)
	}

	// --- analysis & report (Sections 3.1–3.3, Q1–Q5) --------------------
	sys, err := hardware.ByName(*systemName)
	if err != nil {
		return usage(err)
	}
	ares, err := pl.Analyze(ctx, models, aggs, pipeline.AnalyzeOptions{
		Predict:      *predict,
		Budget:       *budget,
		MaxTime:      *maxTime,
		CoresPerRank: float64(sys.CoresPerRank),
		TopKernels:   *topKernels,
	})
	if err != nil {
		return fail(err)
	}
	text, err := pl.RenderContext(ctx, ares)
	if err != nil {
		return fail(err)
	}
	say(stdout, text)
	if models.Degraded() {
		quarantined := 0
		for _, f := range models.Skipped {
			if f.Class != pipeline.FailureUnmodelable {
				quarantined++
			}
		}
		sayf(stderr, "extradeep: %d kernel fits quarantined; the report is partial\n", quarantined)
		return exitPartial
	}
	return exitOK
}

// predictOnly answers questions from previously saved models without any
// profiles — the cheap re-analysis path.
func predictOnly(modelsPath string, predict float64, systemName string, budget, maxTime float64, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		sayln(stderr, "extradeep:", err)
		return exitFailure
	}
	models, err := core.LoadModels(modelsPath)
	if err != nil {
		return fail(err)
	}
	sayf(stdout, "loaded %d kernel models and %d application models from %s\n",
		models.KernelCount(), len(models.App), modelsPath)
	for _, path := range []string{epoch.AppPath, epoch.CompPath, epoch.CommPath, epoch.MemPath} {
		if m, ok := models.App[path]; ok {
			sayf(stdout, "  %-20s T(p) = %s\n", path, m.Function)
		}
	}
	appModel, ok := models.App[epoch.AppPath]
	if !ok {
		return fail(fmt.Errorf("model file has no application runtime model"))
	}
	if predict > 0 {
		lo, hi := appModel.PredictInterval(0.95, predict)
		sayf(stdout, "\npredicted training time per epoch @ %.0f ranks: %.2f s (95%% CI [%.2f, %.2f])\n",
			predict, appModel.Predict(predict), lo, hi)
	}
	if budget > 0 || maxTime > 0 {
		sys, err := hardware.ByName(systemName)
		if err != nil {
			return fail(err)
		}
		cm := analysis.CostModel{Runtime: appModel.Function, CoresPerRank: float64(sys.CoresPerRank)}
		var xs []float64
		for _, p := range appModel.Points {
			xs = append(xs, p[0])
		}
		best, err := analysis.MostCostEffective(appModel.Function, cm, xs, analysis.Constraint{MaxTime: maxTime, Budget: budget})
		if err != nil {
			sayf(stdout, "\ncost-effectiveness: %v\n", err)
			return exitOK
		}
		sayf(stdout, "\nmost cost-effective configuration: %.0f ranks (T = %.2f s, cost = %.3f core-h)\n",
			best.Ranks, best.Time, best.Cost)
	}
	return exitOK
}
