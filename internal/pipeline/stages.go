package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"extradeep/internal/aggregate"
	"extradeep/internal/epoch"
	"extradeep/internal/ingest"
	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/profile"
	"extradeep/internal/resilience"
)

// ModelSet holds every model created for one application. (It moved here
// from internal/core when the fit stage became part of the pipeline;
// core keeps a type alias for compatibility.)
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
// budget, retry of retryable-class failures).
func (p *Pipeline) Ingest(ctx context.Context, dir, format string, opts ingest.Options) (*ingest.Report, error) {
	return p.ingest(ctx, dir, format, opts, nil)
}

// ingest is Ingest with a decode handoff: a file whose name is in
// decoded and whose bytes on disk equal the handed-off bytes reuses that
// profile instead of being decoded again (see RunSpec.Decoded).
func (p *Pipeline) ingest(ctx context.Context, dir, format string, opts ingest.Options, decoded map[string]ingest.Decoded) (*ingest.Report, error) {
	var report *ingest.Report
	err := p.runStage(ctx, StageIngest, func(sctx context.Context) (Counters, error) {
		paths, err := ingest.ListDir(dir, format)
		if err != nil {
			return nil, err
		}
		files := make([]ingest.File, len(paths))
		err = ForEach(sctx, p.cfg.Workers, len(paths), func(i int) error {
			files[i] = ingest.LoadFile(paths[i], format, decoded[filepath.Base(paths[i])])
			return nil
		})
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
// partially (ModelSet.Degraded reports it). With Config.Checkpoint set,
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

		plan, err := newCkptPlan(p.cfg.Checkpoint, tasks, p.cfg.Modeling, p.cfg.Resume)
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
				if rec.Status == resilience.StatusFitted {
					if m, derr := decodeModel(rec.Payload); derr == nil {
						models[i], reused[i] = m, true
						return nil
					}
					// Damaged payload: recover to a miss and refit.
				} else {
					failures[i] = &FitFailure{Metric: string(tasks[i].metric), Callpath: tasks[i].path, App: tasks[i].app, Class: rec.Class, Reason: rec.Reason}
					reused[i] = true
					return nil
				}
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

// fitOne runs a single fit task with per-task resilience: the task's
// injection point fires first; degraded-class injected failures and
// panics (from injection or the modeling code itself) quarantine the
// task instead of aborting the pool; unmodelable series keep their
// historical silent skip. Completed tasks checkpoint incrementally.
//
// Each task constructs its own modeling.Fitter — the design-matrix
// engine context that caches the task's basis columns across the whole
// hypothesis search. The context lives and dies inside this worker
// goroutine, so tasks share nothing mutable; checkpoint content keys
// (fitTaskKey) cover only the task inputs and are unaffected.
func (p *Pipeline) fitOne(ctx context.Context, i int, t fitTask, plan *ckptPlan, models []*modeling.Model, failures []*FitFailure) (err error) {
	quarantine := func(class, reason string) {
		failures[i] = &FitFailure{Metric: string(t.metric), Callpath: t.path, App: t.app, Class: class, Reason: reason}
		plan.record(i, resilience.TaskRecord{Name: t.name(), Status: resilience.StatusSkipped, Class: class, Reason: reason})
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
	fitter, ferr := modeling.NewSeriesFitter(t.series, p.cfg.Modeling)
	var m *modeling.Model
	if ferr == nil {
		m, ferr = fitter.Fit()
	}
	if ferr != nil {
		quarantine(FailureUnmodelable, ferr.Error())
		return nil
	}
	models[i] = m
	if plan != nil {
		if payload, perr := json.Marshal(SaveModel(m)); perr == nil {
			plan.record(i, resilience.TaskRecord{Name: t.name(), Status: resilience.StatusFitted, Payload: payload})
		}
	}
	return nil
}
