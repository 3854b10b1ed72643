package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"extradeep/internal/aggregate"
	"extradeep/internal/epoch"
	"extradeep/internal/ingest"
	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/profile"
	"extradeep/internal/resilience"
)

// ModelSet holds every model created for one application.
type ModelSet struct {
	// Kernel maps metric → callpath → fitted model, one per application
	// kernel that survived filtering.
	Kernel map[measurement.Metric]map[string]*modeling.Model
	// App maps the synthetic application callpaths (epoch.AppPath,
	// epoch.CompPath, epoch.CommPath, epoch.MemPath) to their
	// training-time-per-epoch models.
	App map[string]*modeling.Model
	// KernelExperiment and AppExperiment are the derived per-epoch
	// measurement sets the models were fitted on.
	KernelExperiment *measurement.Experiment
	AppExperiment    *measurement.Experiment
	// Skipped records every fit task that produced no model, in sorted
	// task order, with its failure class. Quarantined failures (class
	// panic/degraded) mark the run as partially complete — see Degraded.
	Skipped []FitFailure
}

// KernelCount returns the number of fitted kernel models across metrics.
func (m *ModelSet) KernelCount() int {
	n := 0
	for _, byPath := range m.Kernel {
		n += len(byPath)
	}
	return n
}

// Ingest is the pipeline's first stage: fault-tolerant profile loading
// with quarantine (internal/ingest). The returned report, its warnings,
// and the error semantics — including the degradation gate and
// strict-mode abort — are exactly those of ingest.LoadDir; the pipeline
// fans the per-file read/decode/validate out across the worker pool,
// assembles the report in file-name order, and adds stage timing,
// counters and the resilience hooks (injection point "ingest", deadline
// budget).
//
// Each profile is summarized as it is loaded (ingest.SummarizeFile):
// it carries its trace's summary under Config.Aggregation, which is all
// the Aggregate stage reads, instead of its events.
func (p *Pipeline) Ingest(ctx context.Context, dir, format string, opts ingest.Options) (*ingest.Report, error) {
	return p.ingest(ctx, dir, format, opts, nil)
}

// IngestTraces is Ingest, except that every profile keeps its full event
// stream (ingest.LoadFile), for readers of the events such as
// diagnose.Check.
func (p *Pipeline) IngestTraces(ctx context.Context, dir, format string, opts ingest.Options) (*ingest.Report, error) {
	return p.ingest(ctx, dir, format, opts, func(ctx context.Context) ([]ingest.File, error) {
		return p.loadDir(ctx, dir, format, ingest.LoadFile)
	})
}

// ingest is Ingest over the loads that load supplies (see RunSpec.Load);
// nil loads and summarizes dir.
func (p *Pipeline) ingest(ctx context.Context, dir, format string, opts ingest.Options, load func(context.Context) ([]ingest.File, error)) (*ingest.Report, error) {
	if load == nil {
		load = func(ctx context.Context) ([]ingest.File, error) { return p.loadDir(ctx, dir, format, p.summarizeFile) }
	}
	var report *ingest.Report
	err := p.runStage(ctx, StageIngest, func(sctx context.Context) (Counters, error) {
		files, err := load(sctx)
		if err != nil {
			return nil, err
		}
		reused := 0
		for _, f := range files {
			if f.Reused {
				reused++
			}
		}
		report, err = ingest.Assemble(dir, format, files, opts)
		if report == nil {
			return nil, err
		}
		return Counters{
			"loaded":      len(report.Profiles),
			"quarantined": len(report.Quarantined),
			"reused":      reused,
		}, err
	})
	return report, err
}

// loadDir lists dir and loads every profile file of the format with
// load on the worker pool, in file-name order.
func (p *Pipeline) loadDir(ctx context.Context, dir, format string, load func(path, format string) ingest.File) ([]ingest.File, error) {
	paths, err := ingest.ListDir(dir, format)
	if err != nil {
		return nil, err
	}
	files := make([]ingest.File, len(paths))
	err = ForEach(ctx, p.cfg.Workers, len(paths), func(i int) error {
		files[i] = load(paths[i], format)
		return nil
	})
	return files, err
}

// summarizeFile loads one profile file summarized under the pipeline's
// aggregation options.
func (p *Pipeline) summarizeFile(path, format string) ingest.File {
	return ingest.SummarizeFile(path, format, p.cfg.Aggregation)
}

// Aggregate groups raw profiles by configuration and runs the Fig. 2
// aggregation pipeline on each group, returning one aggregate per
// application configuration, sorted by measurement point. The per-group
// aggregations are independent and fan out across the worker pool.
func (p *Pipeline) Aggregate(ctx context.Context, profiles []*profile.Profile) ([]*aggregate.ConfigAggregate, error) {
	var aggs []*aggregate.ConfigAggregate
	err := p.runStage(ctx, StageAggregate, func(sctx context.Context) (Counters, error) {
		if len(profiles) == 0 {
			return nil, errors.New("pipeline: no profiles")
		}
		groups := profile.GroupByConfig(profiles)
		keys := profile.SortedKeys(groups)
		out := make([]*aggregate.ConfigAggregate, len(keys))
		err := ForEach(sctx, p.cfg.Workers, len(keys), func(i int) error {
			agg, err := aggregate.Aggregate(groups[keys[i]], p.cfg.Aggregation)
			if err != nil {
				return fmt.Errorf("pipeline: aggregating %s %s: %w", keys[i].App, keys[i].Point, err)
			}
			out[i] = agg
			return nil
		})
		if err != nil {
			return Counters{"profiles": len(profiles)}, err
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].Point.Less(out[j].Point) })
		aggs = out
		return Counters{"profiles": len(profiles), "configurations": len(out)}, nil
	})
	if err != nil {
		return nil, err
	}
	return aggs, nil
}

// fitTask is one unit of the fit stage: a single (metric, callpath)
// series to model. Tasks are enumerated in sorted order so the task list
// — and therefore the result assembly — is identical for every worker
// count.
type fitTask struct {
	metric measurement.Metric
	path   string
	series *measurement.Series
	app    bool // application-level series (no silent-skip bookkeeping difference, only assembly target)
}

// BuildModels runs the EpochExtrapolate and Fit stages: it derives the
// per-epoch kernel and application experiments from the aggregates
// (Eqs. 2–4), filters kernels observed in fewer than the paper's five
// configurations (measurement.MinModelingPoints), and
// fans the per-kernel PMNF hypothesis search (Eq. 5) out across the
// worker pool.
//
// Failure handling per task: series the hypothesis search rejects
// (degenerate data) are skipped silently as before, recorded with class
// FailureUnmodelable; fits that panic or fail with the degraded class
// are quarantined with their failure class and the run completes
// partially (ModelSet.Degraded reports it). With Config.CheckpointDir set,
// every completed task persists as its own record under a content key of
// its inputs, and a Config.Resume run reuses the stored result of every
// task whose inputs are unchanged, whichever campaign stored it —
// byte-identically, since the model codec round-trips exactly.
func (p *Pipeline) BuildModels(ctx context.Context, aggs []*aggregate.ConfigAggregate, setup epoch.SetupFunc) (*ModelSet, error) {
	var kernelExp, appExp *measurement.Experiment
	err := p.runStage(ctx, StageEpoch, func(sctx context.Context) (Counters, error) {
		var err error
		kernelExp, err = epoch.BuildKernelExperiment(aggs, setup)
		if err != nil {
			return nil, err
		}
		filtered := kernelExp.FilterInsufficient(measurement.MinModelingPoints)
		appExp, err = epoch.BuildApplicationExperiment(aggs, setup)
		if err != nil {
			return nil, err
		}
		return Counters{"configurations": len(aggs), "filtered_series": filtered}, nil
	})
	if err != nil {
		return nil, err
	}

	ms := &ModelSet{
		Kernel:           make(map[measurement.Metric]map[string]*modeling.Model),
		App:              make(map[string]*modeling.Model),
		KernelExperiment: kernelExp,
		AppExperiment:    appExp,
	}
	err = p.runStage(ctx, StageFit, func(sctx context.Context) (Counters, error) {
		// Enumerate tasks in sorted (metric, callpath) order; Metrics()
		// and Callpaths() already sort.
		var tasks []fitTask
		for _, metric := range kernelExp.Metrics() {
			for _, path := range kernelExp.Callpaths(metric) {
				tasks = append(tasks, fitTask{metric: metric, path: path, series: kernelExp.Series(metric, path)})
			}
		}
		for _, path := range appExp.Callpaths(measurement.MetricTime) {
			tasks = append(tasks, fitTask{metric: measurement.MetricTime, path: path, series: appExp.Series(measurement.MetricTime, path), app: true})
		}

		plan, err := newCkptPlan(p.cfg.CheckpointDir, tasks, p.cfg.Modeling, p.cfg.Resume)
		if err != nil {
			return Counters{"tasks": len(tasks)}, err
		}

		// Fan out: one slot per task, written only by its own goroutine.
		// Quarantined failures land in their failure slot instead of
		// aborting the pool; only fatal/retryable errors propagate.
		models := make([]*modeling.Model, len(tasks))
		failures := make([]*FitFailure, len(tasks))
		reused := make([]bool, len(tasks))
		err = ForEach(sctx, p.cfg.Workers, len(tasks), func(i int) error {
			if rec, ok := plan.reuse(i); ok {
				reused[i] = true
				if rec.Model == nil {
					failures[i] = tasks[i].failure(rec.Class, rec.Reason)
					return nil
				}
				// decodeRecord admits only models with a function, the
				// one thing Model rejects.
				models[i], _ = rec.Model.Model()
				return nil
			}
			return p.fitOne(sctx, i, tasks[i], plan, models, failures)
		})
		if err != nil {
			return Counters{"tasks": len(tasks)}, err
		}

		// Deterministic reduction in task order.
		fitted, unmodelable, quarantined, hits := 0, 0, 0, 0
		for i, t := range tasks {
			if reused[i] {
				hits++
			}
			if f := failures[i]; f != nil {
				ms.Skipped = append(ms.Skipped, *f)
				if f.Class == FailureUnmodelable {
					unmodelable++
				} else {
					quarantined++
				}
				continue
			}
			if models[i] == nil {
				continue
			}
			fitted++
			if t.app {
				ms.App[t.path] = models[i]
				continue
			}
			byPath := ms.Kernel[t.metric]
			if byPath == nil {
				byPath = make(map[string]*modeling.Model)
				ms.Kernel[t.metric] = byPath
			}
			byPath[t.path] = models[i]
		}
		counters := Counters{"tasks": len(tasks), "fitted": fitted, "skipped": unmodelable}
		if quarantined > 0 {
			counters["quarantined"] = quarantined
		}
		if hits > 0 {
			counters["reused"] = hits
		}
		if len(ms.App) == 0 {
			return counters, errors.New("pipeline: no application model could be created")
		}
		return counters, nil
	})
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// failure records the task as skipped or quarantined with class.
func (t fitTask) failure(class, reason string) *FitFailure {
	return &FitFailure{Metric: string(t.metric), Callpath: t.path, App: t.app, Class: class, Reason: reason}
}

// fitOne runs a single fit task with per-task resilience: the task's
// injection point fires first; degraded-class injected failures and
// panics (from injection or the modeling code itself) quarantine the
// task instead of aborting the pool; unmodelable series keep their
// historical silent skip. Completed tasks checkpoint incrementally.
//
// Each modeling.FitSeries call builds its own design-matrix engine
// context, which caches the task's basis columns across the whole
// hypothesis search. The context lives and dies inside this worker
// goroutine, so tasks share nothing mutable; checkpoint content keys
// (fitTaskKey) cover only the task inputs and are unaffected.
func (p *Pipeline) fitOne(ctx context.Context, i int, t fitTask, plan *ckptPlan, models []*modeling.Model, failures []*FitFailure) (err error) {
	quarantine := func(class, reason string) {
		failures[i] = t.failure(class, reason)
		plan.record(i, ckptRecord{Name: t.name(), Status: "skipped", Class: class, Reason: reason})
	}
	defer func() {
		if r := recover(); r != nil {
			quarantine(FailurePanic, fmt.Sprint(r))
			err = nil
		}
	}()
	if ierr := p.cfg.Injector.At(ctx, fitTaskPoint(i)); ierr != nil {
		if resilience.IsDegraded(ierr) {
			quarantine(FailureDegraded, ierr.Error())
			return nil
		}
		return ierr
	}
	m, ferr := modeling.FitSeries(t.series, p.cfg.Modeling)
	if ferr != nil {
		quarantine(FailureUnmodelable, ferr.Error())
		return nil
	}
	models[i] = m
	if plan != nil {
		saved := SaveModel(m)
		plan.record(i, ckptRecord{Name: t.name(), Status: "fitted", Model: &saved})
	}
	return nil
}
