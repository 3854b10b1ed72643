package aggregate

import (
	"errors"
	"fmt"
	"sort"

	"extradeep/internal/calltree"
	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/trace"
)

// This file freezes the map-based aggregation that preceded the dense
// kernel table, as the reference the table must reproduce bit for bit
// (TestPropAggregateMatchesReference). Only the result types differ from
// that implementation: they keep its map-of-map shapes.

// refKernelAggregate is KernelAggregate in the reference's map shape.
type refKernelAggregate struct {
	Callpath string
	Name     string
	Kind     calltree.Kind
	PerRep   map[measurement.Metric][]StepValue
	Value    map[measurement.Metric]StepValue
}

// Category returns the kernel's phase category.
func (k *refKernelAggregate) Category() calltree.Category { return calltree.CategoryOf(k.Kind) }

// refConfigAggregate is ConfigAggregate in the reference's map shape.
type refConfigAggregate struct {
	App              string
	Params           []string
	Point            measurement.Point
	Kernels          map[string]*refKernelAggregate
	Categories       map[calltree.Category]map[measurement.Metric]StepValue
	CategoriesPerRep map[calltree.Category]map[measurement.Metric][]StepValue
	Reps             int
	TrainSteps       int
}

// sortedKernels returns the aggregate's kernels sorted by callpath.
func (a *refConfigAggregate) sortedKernels() []*refKernelAggregate {
	keys := make([]string, 0, len(a.Kernels))
	for k := range a.Kernels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*refKernelAggregate, len(keys))
	for i, k := range keys {
		out[i] = a.Kernels[k]
	}
	return out
}

// refKernelKey returns the aggregation key for an event: the callpath
// when set, the bare name otherwise.
func refKernelKey(e trace.Event) string {
	if e.Callpath != "" {
		return e.Callpath
	}
	return e.Name
}

// refMetricValue extracts the value of metric m from an event: duration
// for time, 1 for visits, transferred bytes for bytes.
func refMetricValue(e trace.Event, m measurement.Metric) float64 {
	switch m {
	case measurement.MetricTime:
		return e.Duration
	case measurement.MetricVisits:
		return e.Visits()
	case measurement.MetricBytes:
		return e.Bytes
	default:
		return 0
	}
}

// reduce aggregates a slice with median (default) or mean.
func refReduce(xs []float64, useMean bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	if useMean {
		m, _ := mathutil.Mean(xs) // non-empty by the guard above
		return m
	}
	m, _ := mathutil.Median(xs) // non-empty by the guard above
	return m
}

// refPhaseSums holds one kernel's per-step sums v_n in one phase: per
// metric (indexed like metricIDs, nil for a metric the kernel does not
// record), one value per kept step of that phase.
type refPhaseSums [len(metricIDs)][]float64

// refKernelSums is one kernel's step (1) result for one trace. train and
// validation stay nil when the kernel has no event in that phase; kind
// and name are those of the kernel's last event.
type refKernelSums struct {
	key               string
	name              string
	kind              calltree.Kind
	train, validation *refPhaseSums
}

// refNewPhaseSums allocates the per-step sums of a kernel of the given kind
// over n kept steps.
func refNewPhaseSums(kind calltree.Kind, n int) *refPhaseSums {
	ps := new(refPhaseSums)
	for i := range metricsFor(kind) {
		ps[i] = make([]float64, n)
	}
	return ps
}

// refPerStepSums computes step (1) of the pipeline for one trace: for every
// kernel and metric, the per-step sums v_n, separated by phase. Only the
// kept steps trainIdx and valIdx count, so steps of skipped (warm-up)
// epochs are excluded. Asynchronous events between steps are attributed
// to the following step. Each kernel's sums are added in event order.
func refPerStepSums(tr *trace.Trace, trainIdx, valIdx []int) []refKernelSums {
	// slots maps a global step index to its position among the kept
	// steps of its phase; pos < 0 marks a step that is not kept.
	type slot struct {
		train bool
		pos   int
	}
	slots := make([]slot, len(tr.Steps))
	for i := range slots {
		slots[i].pos = -1
	}
	for pos, i := range trainIdx {
		slots[i] = slot{true, pos}
	}
	for pos, i := range valIdx {
		slots[i] = slot{false, pos}
	}

	var kernels []refKernelSums
	index := make(map[string]int)
	for _, e := range tr.Events {
		stepIdx := tr.StepOf(e.Start)
		if stepIdx == -1 {
			// Asynchronous kernel: attribute to the following step, per
			// the paper's between-step handling.
			stepIdx = tr.FollowingStep(e.Start)
			if stepIdx == -1 {
				continue // after the last step: outside the profiled window
			}
		}
		sl := slots[stepIdx]
		if sl.pos < 0 {
			continue
		}
		key := refKernelKey(e)
		k, ok := index[key]
		if !ok {
			k = len(kernels)
			index[key] = k
			kernels = append(kernels, refKernelSums{key: key})
		}
		ks := &kernels[k]
		ks.kind = e.Kind
		ks.name = e.Name
		var ps *refPhaseSums
		if sl.train {
			if ks.train == nil {
				ks.train = refNewPhaseSums(e.Kind, len(trainIdx))
			}
			ps = ks.train
		} else {
			if ks.validation == nil {
				ks.validation = refNewPhaseSums(e.Kind, len(valIdx))
			}
			ps = ks.validation
		}
		for i, metric := range metricsFor(e.Kind) {
			ps[i][sl.pos] += refMetricValue(e, metric)
		}
	}
	return kernels
}

// Aggregate runs the full pipeline on the profiles of one application
// configuration (all ranks, all repetitions of one measurement point).
// The profiles must agree on app, params and config.
func referenceAggregate(profiles []*profile.Profile, opts Options) (*refConfigAggregate, error) {
	if len(profiles) == 0 {
		return nil, errors.New("aggregate: no profiles")
	}
	first := profiles[0]
	for _, p := range profiles[1:] {
		if p.App != first.App || !measurement.Point(p.Config).Equal(measurement.Point(first.Config)) {
			return nil, fmt.Errorf("aggregate: mixed configurations: %s%v vs %s%v",
				first.App, first.Config, p.App, p.Config)
		}
	}

	// Group by repetition, then by rank.
	byRep := make(map[int][]*profile.Profile)
	for _, p := range profiles {
		byRep[p.Rep] = append(byRep[p.Rep], p)
	}
	reps := make([]int, 0, len(byRep))
	for r := range byRep {
		reps = append(reps, r)
	}
	sort.Ints(reps)

	agg := &refConfigAggregate{
		App:              first.App,
		Params:           append([]string(nil), first.Params...),
		Point:            measurement.Point(first.Config).Clone(),
		Kernels:          make(map[string]*refKernelAggregate),
		Categories:       make(map[calltree.Category]map[measurement.Metric]StepValue),
		CategoriesPerRep: make(map[calltree.Category]map[measurement.Metric][]StepValue),
		Reps:             len(reps),
	}

	// perRankValues[key][metric] collects, for the current repetition,
	// the per-rank reduced (median-over-steps) values.
	type repResult struct {
		values map[string]map[measurement.Metric]StepValue
	}
	var repResults []repResult
	kinds := make(map[string]calltree.Kind)
	names := make(map[string]string)

	for _, rep := range reps {
		group := byRep[rep]
		sort.SliceStable(group, func(i, j int) bool { return group[i].Rank < group[j].Rank })
		// perRank[key][metric] → per-rank slice of ṽ_kr values.
		perRankTrain := make(map[string]map[measurement.Metric][]float64)
		perRankVal := make(map[string]map[measurement.Metric][]float64)

		for _, p := range group {
			tr := &p.Trace
			skipEpochs := refWarmupEpochs(tr, opts.SkipWarmupEpochs)
			trainIdx := tr.StepsOfPhase(trace.PhaseTrain, skipEpochs...)
			valIdx := tr.StepsOfPhase(trace.PhaseValidation, skipEpochs...)
			if agg.TrainSteps == 0 && p.Rank == 0 {
				agg.TrainSteps = len(trainIdx)
			}
			// Each kernel gets one per-rank value per profile, appended
			// in profile order, so the kernels' own order is immaterial.
			for _, ks := range refPerStepSums(tr, trainIdx, valIdx) {
				kinds[ks.key] = ks.kind
				names[ks.key] = ks.name
				refAddRankValue(perRankTrain, ks.key, ks.train, opts.UseMean)
				refAddRankValue(perRankVal, ks.key, ks.validation, opts.UseMean)
			}
		}

		// Step (2): median over ranks.
		rr := repResult{values: make(map[string]map[measurement.Metric]StepValue)}
		allKeys := make(map[string]bool)
		for k := range perRankTrain {
			allKeys[k] = true
		}
		for k := range perRankVal {
			allKeys[k] = true
		}
		for key := range allKeys {
			byMetric := make(map[measurement.Metric]StepValue)
			for _, metric := range metricsFor(kinds[key]) {
				var sv StepValue
				if vs, ok := perRankTrain[key]; ok {
					sv.Train = refReduce(vs[metric], opts.UseMean)
				}
				if vs, ok := perRankVal[key]; ok {
					sv.Validation = refReduce(vs[metric], opts.UseMean)
				}
				byMetric[metric] = sv
			}
			rr.values[key] = byMetric
		}
		repResults = append(repResults, rr)
	}

	// Step (3): median over repetitions; assemble kernel aggregates.
	allKeys := make(map[string]bool)
	for _, rr := range repResults {
		for k := range rr.values {
			allKeys[k] = true
		}
	}
	for key := range allKeys {
		k := &refKernelAggregate{
			Callpath: key,
			Name:     names[key],
			Kind:     kinds[key],
			PerRep:   make(map[measurement.Metric][]StepValue),
			Value:    make(map[measurement.Metric]StepValue),
		}
		for _, metric := range metricsFor(k.Kind) {
			perRep := make([]StepValue, 0, len(repResults))
			for _, rr := range repResults {
				if byMetric, ok := rr.values[key]; ok {
					perRep = append(perRep, byMetric[metric])
				} else {
					perRep = append(perRep, StepValue{})
				}
			}
			k.PerRep[metric] = perRep
			trainVals := make([]float64, len(perRep))
			valVals := make([]float64, len(perRep))
			for i, sv := range perRep {
				trainVals[i] = sv.Train
				valVals[i] = sv.Validation
			}
			k.Value[metric] = StepValue{
				Train:      refReduce(trainVals, opts.UseMean),
				Validation: refReduce(valVals, opts.UseMean),
			}
		}
		agg.Kernels[key] = k
	}

	// Category sums (Eq. 6 inputs): sum the member kernels' aggregates.
	// Iterate in sorted callpath order — floating-point addition is not
	// associative, and map order would make the sums run-to-run unstable.
	for _, k := range agg.sortedKernels() {
		cat := k.Category()
		if cat == calltree.CategoryUnknown {
			continue
		}
		byMetric := agg.Categories[cat]
		if byMetric == nil {
			byMetric = make(map[measurement.Metric]StepValue)
			agg.Categories[cat] = byMetric
		}
		perRepByMetric := agg.CategoriesPerRep[cat]
		if perRepByMetric == nil {
			perRepByMetric = make(map[measurement.Metric][]StepValue)
			agg.CategoriesPerRep[cat] = perRepByMetric
		}
		for metric, sv := range k.Value {
			byMetric[metric] = byMetric[metric].Add(sv)
			perRep := perRepByMetric[metric]
			if perRep == nil {
				perRep = make([]StepValue, agg.Reps)
			}
			for i, rv := range k.PerRep[metric] {
				if i < len(perRep) {
					perRep[i] = perRep[i].Add(rv)
				}
			}
			perRepByMetric[metric] = perRep
		}
	}
	return agg, nil
}

// refAddRankValue reduces one kernel's per-step sums in one phase to one
// value per rank (step (2)'s input ṽ_kr) and appends it to the per-rank
// collection. A nil ps (no event in the phase) adds nothing.
func refAddRankValue(perRank map[string]map[measurement.Metric][]float64, key string, ps *refPhaseSums, useMean bool) {
	if ps == nil {
		return
	}
	dst := perRank[key]
	if dst == nil {
		dst = make(map[measurement.Metric][]float64)
		perRank[key] = dst
	}
	for i, stepVals := range ps {
		if stepVals != nil {
			dst[metricIDs[i]] = append(dst[metricIDs[i]], refReduce(stepVals, useMean))
		}
	}
}

// refWarmupEpochs returns the epoch indices to skip: the first `skip` epochs,
// but never all of them — at least one epoch of data must remain.
func refWarmupEpochs(tr *trace.Trace, skip int) []int {
	if skip <= 0 || len(tr.Epochs) <= skip {
		if len(tr.Epochs) > 1 && skip > 0 {
			skip = len(tr.Epochs) - 1
		} else {
			return nil
		}
	}
	idx := make([]int, 0, skip)
	sorted := append([]trace.EpochSpan(nil), tr.Epochs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	for i := 0; i < skip && i < len(sorted); i++ {
		idx = append(idx, sorted[i].Index)
	}
	return idx
}
