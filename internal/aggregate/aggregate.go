// Package aggregate implements Extra-Deep's measurement preprocessing and
// aggregation pipeline (Fig. 2 of the paper), which makes the efficient
// sampling strategy possible:
//
//  1. Within each profiled training/validation step, all metric values of a
//     kernel's executions are summed (Eq. 1), yielding v_nkr for step n,
//     rank k, repetition r. Kernels executed asynchronously between two
//     steps are attributed to the following step and aggregated the same
//     way.
//  2. Per rank and repetition, the median over steps gives ṽ_kr.
//  3. Per repetition, the median over ranks gives Ṽ_r, and the median over
//     repetitions gives Ṽ.
//  4. Kernels observed in fewer than five application configurations are
//     filtered out before modeling (handled by
//     measurement.Experiment.FilterInsufficient).
//
// Training and validation steps are aggregated separately because the
// epoch extrapolation (Eq. 4) weighs them with different step counts.
// The first epoch is treated as warm-up and excluded, mirroring the
// paper's handling of framework initialization effects.
//
// Steps 1 and 2's median over steps depend on one profile alone, so
// Aggregate reduces each profile to a small summary first and then merges
// the summaries of a configuration through one dense kernel table. Both
// run in pooled scratch; results carry metric-indexed arrays (see
// KernelAggregate and MetricAt).
package aggregate

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"extradeep/internal/calltree"
	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/trace"
)

// Options configures the aggregation pipeline.
type Options struct {
	// SkipWarmupEpochs is the number of leading epochs whose measurements
	// are discarded. The default (when the trace has more than one epoch)
	// is 1, per the paper. Traces with a single epoch are used as-is.
	SkipWarmupEpochs int
	// UseMean aggregates with means instead of medians across steps,
	// ranks and repetitions (for the noise-resilience ablation).
	UseMean bool
}

// DefaultOptions returns the paper's configuration: one warm-up epoch
// skipped, median aggregation.
func DefaultOptions() Options { return Options{SkipWarmupEpochs: 1} }

// StepValue carries a per-step metric value separated by phase.
type StepValue struct {
	// Train is the per-training-step value.
	Train float64
	// Validation is the per-validation-step value.
	Validation float64
}

// Add returns the component-wise sum of two step values.
func (v StepValue) Add(w StepValue) StepValue {
	return StepValue{Train: v.Train + w.Train, Validation: v.Validation + w.Validation}
}

// KernelAggregate is the fully aggregated measurement of one kernel at one
// application configuration. Its per-metric fields are metric-indexed
// arrays: index i belongs to MetricAt(i), and only the indices of
// Metrics() carry data.
type KernelAggregate struct {
	// Callpath identifies the kernel, e.g. "App->train->EigenMetaKernel".
	Callpath string
	// Name is the kernel's own name.
	Name string
	// Kind classifies the kernel.
	Kind calltree.Kind
	// PerRep holds, per metric index, the per-repetition aggregated
	// values Ṽ_r (median over steps, then ranks) in repetition order; nil
	// for a metric the kernel does not record.
	PerRep [NumMetrics][]StepValue
	// Value holds, per metric index, the final aggregate Ṽ (median over
	// repetitions of PerRep); zero for a metric the kernel does not
	// record.
	Value [NumMetrics]StepValue
}

// Category returns the kernel's phase category.
func (k *KernelAggregate) Category() calltree.Category { return calltree.CategoryOf(k.Kind) }

// Metrics returns the metrics the kernel records, in metric-index order:
// PerRep[i] and Value[i] belong to Metrics()[i]. Memory operations
// additionally record transferred bytes. Callers must not modify the
// result.
func (k *KernelAggregate) Metrics() []measurement.Metric { return metricsFor(k.Kind) }

// numCategories sizes the category-indexed arrays of ConfigAggregate:
// one entry per calltree.Category, CategoryUnknown's always empty.
const numCategories = calltree.CategoryMemory + 1

// ConfigAggregate is the aggregation result for one application
// configuration (one measurement point), the "Extra-Deep object" of Fig. 1.
// Its per-repetition slices are carved from one allocation per
// configuration, each capped at its own length, so appending to one never
// overwrites another.
type ConfigAggregate struct {
	// App is the application name.
	App string
	// Params are the execution-parameter names.
	Params []string
	// Point is the application configuration.
	Point measurement.Point
	// Kernels maps callpath → kernel aggregate.
	Kernels map[string]*KernelAggregate
	// Categories holds, per phase category and metric index, the sum of
	// the member kernels' final aggregates (the paper's Ṽ_comp, Ṽ_comm,
	// Ṽ_mem of Eq. 6). Entries no member kernel records stay zero.
	Categories [numCategories][NumMetrics]StepValue
	// CategoriesPerRep mirrors Categories per repetition, for run-to-run
	// variation analysis. An entry is nil exactly when no member kernel
	// records that metric (in particular for a category without members).
	CategoriesPerRep [numCategories][NumMetrics][]StepValue
	// Reps is the number of measurement repetitions aggregated.
	Reps int
	// TrainSteps is the number of profiled training steps kept after
	// warm-up removal, in the first rank-0 profile (in repetition order)
	// that has any; the consistency check reports it.
	TrainSteps int
}

// kernelKey returns the aggregation key for an event: the callpath when
// set, the bare name otherwise.
func kernelKey(e trace.Event) string {
	if e.Callpath != "" {
		return e.Callpath
	}
	return e.Name
}

// metricValue extracts the value of metric m from an event: duration for
// time, 1 for visits, transferred bytes for bytes.
func metricValue(e trace.Event, m measurement.Metric) float64 {
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

// metricIDs orders every metric a kernel can record. metricsFor returns
// a prefix of it, so a metric's position in metricsFor's result is its
// position here too, and per-metric arrays are indexed by it.
var metricIDs = [...]measurement.Metric{measurement.MetricTime, measurement.MetricVisits, measurement.MetricBytes}

// metricsFor returns the metrics recorded for a kernel kind: memory
// operations additionally carry transferred bytes. Callers must not
// modify the result.
func metricsFor(kind calltree.Kind) []measurement.Metric {
	if calltree.CategoryOf(kind) == calltree.CategoryMemory {
		return metricIDs[:3]
	}
	return metricIDs[:2]
}

// NumMetrics is the number of metrics a kernel can record: the length of
// every metric-indexed array.
const NumMetrics = len(metricIDs)

// MetricAt returns the metric at index i of the metric-indexed arrays.
func MetricAt(i int) measurement.Metric { return metricIDs[i] }

// MetricIndex returns the index of metric m in the metric-indexed arrays,
// or -1 for a metric no kernel records.
func MetricIndex(m measurement.Metric) int {
	for i, id := range metricIDs {
		if id == m {
			return i
		}
	}
	return -1
}

// reduce aggregates a slice with median (default) or mean. It is the
// last reader of xs: the median sorts xs in place, the mean sums it in
// order.
func reduce(xs []float64, useMean bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	if useMean {
		m, _ := mathutil.Mean(xs) // non-empty by the guard above
		return m
	}
	m, _ := mathutil.MedianInPlace(xs) // non-empty by the guard above
	return m
}

// Phase indices of the per-phase arrays.
const (
	phaseTrain = iota
	phaseValidation
	numPhases
)

// kernelSummary is one kernel's share of a profile summary.
type kernelSummary struct {
	// key, name and kind are those of the kernel's last kept event in
	// the profile.
	key, name string
	kind      calltree.Kind
	// row locates, per phase and metric index, the kernel's per-step sums
	// v_n in the scratch arena; -1 marks a metric no kept event of the
	// kernel recorded in that phase.
	row [numPhases][NumMetrics]int
	// v holds ṽ_kr, the reduction of each row over the kept steps.
	v [numPhases][NumMetrics]float64
}

// noRows is a kernelSummary.row with every row absent.
var noRows = [numPhases][NumMetrics]int{{-1, -1, -1}, {-1, -1, -1}}

// summary is what one profile contributes to its configuration's
// aggregate: Fig. 2's steps (1) and (2)-over-steps, which depend on that
// profile alone.
type summary struct {
	// trainSteps is the number of kept training steps.
	trainSteps int
	// kernels lists the kernels with a kept event, in order of their
	// first such event.
	kernels []kernelSummary
}

// stepSlot is a step's position among the kept steps of its phase; pos <
// 0 marks a step that is not kept.
type stepSlot struct {
	phase, pos int
}

// tableSlot is one kernel of the configuration's kernel table.
type tableSlot struct {
	// key, name and kind are those of the kernel's latest summary in
	// merge order.
	key, name string
	kind      calltree.Kind
	// rep is 1 + the index of the last repetition the kernel occurred
	// in, 0 before its first.
	rep int
}

// scratch is one worker's reusable aggregation state, taken from
// scratchPool for one Aggregate call. It is reset per profile (summary
// state) and per configuration (table state); no result references it.
type scratch struct {
	// Summary state.
	sum    summary
	local  map[string]int // key → index in sum.kernels
	steps  []stepSlot     // global step index → kept position
	epochs []trace.EpochSpan
	skip   []int
	arena  []float64 // the summary's per-step sums rows

	// Table state.
	order []int          // profile indices in (rep, rank) order
	index map[string]int // key → slot in table
	table []tableSlot
	// rankVals holds the current repetition's per-rank ṽ_kr values:
	// rankN[j] values at rankVals[j*width:], where j indexes (slot,
	// phase, metric) and width is the repetition's profile count.
	rankVals []float64
	rankN    []int
	present  []int       // slots occurring in the current repetition
	repVals  []StepValue // Ṽ_r at [(slot*reps + rep)*NumMetrics + metric]
	sorted   []int
	buf      []float64
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{local: make(map[string]int), index: make(map[string]int)}
}}

// extend returns s grown by n zero elements.
func extend[T any](s []T, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// Aggregate runs the full pipeline on the profiles of one application
// configuration (all ranks, all repetitions of one measurement point).
// The profiles must agree on app, params and config.
//
// Each profile is first reduced to a summary (steps (1) and the median
// over steps of step (2)); the summaries are then merged in (repetition,
// rank) order through one kernel table for the configuration (the median
// over ranks, then step (3)). Both run in pooled scratch, so the only
// allocations are the result's.
func Aggregate(profiles []*profile.Profile, opts Options) (*ConfigAggregate, error) {
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
	s := scratchPool.Get().(*scratch)
	agg := s.aggregate(profiles, opts)
	s.release()
	scratchPool.Put(s)
	return agg, nil
}

// release drops the scratch's references to the profiles just
// aggregated, so a pooled scratch does not keep them alive.
func (s *scratch) release() {
	clear(s.local)
	clear(s.index)
	clear(s.sum.kernels[:cap(s.sum.kernels)])
	clear(s.table[:cap(s.table)])
}

// aggregate merges the summaries of one configuration's profiles.
func (s *scratch) aggregate(profiles []*profile.Profile, opts Options) *ConfigAggregate {
	// Repetitions ascending, ranks ascending within a repetition, input
	// order among equals.
	s.order = s.order[:0]
	for i := range profiles {
		s.order = append(s.order, i)
	}
	slices.SortStableFunc(s.order, func(a, b int) int {
		pa, pb := profiles[a], profiles[b]
		if c := cmp.Compare(pa.Rep, pb.Rep); c != 0 {
			return c
		}
		return cmp.Compare(pa.Rank, pb.Rank)
	})
	reps := 1
	for i := 1; i < len(s.order); i++ {
		if profiles[s.order[i]].Rep != profiles[s.order[i-1]].Rep {
			reps++
		}
	}

	first := profiles[0]
	agg := &ConfigAggregate{
		App:    first.App,
		Params: append([]string(nil), first.Params...),
		Point:  measurement.Point(first.Config).Clone(),
		Reps:   reps,
	}
	s.table = s.table[:0]
	s.rankN = s.rankN[:0]
	s.repVals = s.repVals[:0]
	rep := 0
	for lo := 0; lo < len(s.order); rep++ {
		hi := lo + 1
		for hi < len(s.order) && profiles[s.order[hi]].Rep == profiles[s.order[lo]].Rep {
			hi++
		}
		s.mergeRep(agg, profiles, s.order[lo:hi], rep, opts)
		lo = hi
	}
	s.assemble(agg, opts)
	return agg
}

// summarize computes one trace's summary into s.sum. Step (1): for every
// kernel and metric, the per-step sums v_n over the kept steps (warm-up
// epochs excluded), separated by phase and added in event order into
// dense rows of s.arena; asynchronous events between steps count toward
// the following step. Step (2), first half: each row reduced in place to
// ṽ_kr.
//
// A row is allocated at the first event that records its metric in its
// phase, zero before it. So a kernel whose kind switches from a compute
// to a memory kind within one profile gains its bytes row at the first
// memory event, and its earlier steps carry zero bytes.
func (s *scratch) summarize(tr *trace.Trace, opts Options) {
	nTrain, nVal := s.keepSteps(tr, opts.SkipWarmupEpochs)
	s.sum.trainSteps = nTrain
	s.sum.kernels = s.sum.kernels[:0]
	s.arena = s.arena[:0]
	clear(s.local)
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
		sl := s.steps[stepIdx]
		if sl.pos < 0 {
			continue
		}
		key := kernelKey(e)
		k, ok := s.local[key]
		if !ok {
			k = len(s.sum.kernels)
			s.local[key] = k
			s.sum.kernels = append(s.sum.kernels, kernelSummary{key: key, row: noRows})
		}
		ks := &s.sum.kernels[k]
		ks.kind = e.Kind
		ks.name = e.Name
		n := nTrain
		if sl.phase == phaseValidation {
			n = nVal
		}
		for i, metric := range metricsFor(e.Kind) {
			off := ks.row[sl.phase][i]
			if off < 0 {
				off = len(s.arena)
				s.arena = extend(s.arena, n)
				ks.row[sl.phase][i] = off
			}
			s.arena[off+sl.pos] += metricValue(e, metric)
		}
	}
	for k := range s.sum.kernels {
		ks := &s.sum.kernels[k]
		for ph, n := range [numPhases]int{nTrain, nVal} {
			for i, off := range ks.row[ph] {
				if off >= 0 {
					ks.v[ph][i] = reduce(s.arena[off:off+n], opts.UseMean)
				}
			}
		}
	}
}

// keepSteps fills s.steps with every step's position among the kept
// steps of its phase and returns the kept training and validation step
// counts. Steps of the skipped warm-up epochs are not kept.
func (s *scratch) keepSteps(tr *trace.Trace, skipEpochs int) (nTrain, nVal int) {
	skip := s.warmupEpochs(tr, skipEpochs)
	s.steps = extend(s.steps[:0], len(tr.Steps))
	for i, st := range tr.Steps {
		sl := stepSlot{pos: -1}
		if !slices.Contains(skip, st.Epoch) {
			switch st.Phase {
			case trace.PhaseTrain:
				sl = stepSlot{phaseTrain, nTrain}
				nTrain++
			case trace.PhaseValidation:
				sl = stepSlot{phaseValidation, nVal}
				nVal++
			}
		}
		s.steps[i] = sl
	}
	return nTrain, nVal
}

// warmupEpochs returns the epoch indices to skip: the first `skip` epochs,
// but never all of them — at least one epoch of data must remain.
func (s *scratch) warmupEpochs(tr *trace.Trace, skip int) []int {
	if skip <= 0 || len(tr.Epochs) <= skip {
		if len(tr.Epochs) > 1 && skip > 0 {
			skip = len(tr.Epochs) - 1
		} else {
			return nil
		}
	}
	s.epochs = append(s.epochs[:0], tr.Epochs...)
	slices.SortFunc(s.epochs, func(a, b trace.EpochSpan) int { return cmp.Compare(a.Index, b.Index) })
	s.skip = s.skip[:0]
	for _, ep := range s.epochs[:skip] {
		s.skip = append(s.skip, ep.Index)
	}
	return s.skip
}

// slot returns the kernel table slot of key, adding one for a new key.
func (s *scratch) slot(key string, reps int) int {
	if slot, ok := s.index[key]; ok {
		return slot
	}
	slot := len(s.table)
	s.index[key] = slot
	s.table = append(s.table, tableSlot{key: key})
	s.rankN = extend(s.rankN, numPhases*NumMetrics)
	s.repVals = extend(s.repVals, reps*NumMetrics)
	return slot
}

// mergeRep merges the summaries of one repetition's profiles, given in
// rank order, into the kernel table, and reduces each kernel's per-rank
// values to Ṽ_r (step (2), second half). A kernel's metric set for the
// repetition is that of its kind after the repetition's last profile;
// metrics outside it keep Ṽ_r = 0, as do kernels absent from the
// repetition.
func (s *scratch) mergeRep(agg *ConfigAggregate, profiles []*profile.Profile, group []int, rep int, opts Options) {
	const stride = numPhases * NumMetrics
	width := len(group)
	s.present = s.present[:0]
	for _, pi := range group {
		p := profiles[pi]
		s.summarize(&p.Trace, opts)
		if agg.TrainSteps == 0 && p.Rank == 0 {
			agg.TrainSteps = s.sum.trainSteps
		}
		for k := range s.sum.kernels {
			ks := &s.sum.kernels[k]
			slot := s.slot(ks.key, agg.Reps)
			st := &s.table[slot]
			st.kind = ks.kind
			st.name = ks.name
			if st.rep != rep+1 {
				st.rep = rep + 1
				s.present = append(s.present, slot)
				clear(s.rankN[slot*stride : (slot+1)*stride])
				if need := (slot + 1) * stride * width; len(s.rankVals) < need {
					s.rankVals = extend(s.rankVals, need-len(s.rankVals))
				}
			}
			for ph := range ks.row {
				for i, off := range ks.row[ph] {
					if off >= 0 {
						j := slot*stride + ph*NumMetrics + i
						s.rankVals[j*width+s.rankN[j]] = ks.v[ph][i]
						s.rankN[j]++
					}
				}
			}
		}
	}
	for _, slot := range s.present {
		base := (slot*agg.Reps + rep) * NumMetrics
		for i := range metricsFor(s.table[slot].kind) {
			j := slot*stride + i
			vj := j + phaseValidation*NumMetrics
			s.repVals[base+i] = StepValue{
				Train:      reduce(s.rankVals[j*width:j*width+s.rankN[j]], opts.UseMean),
				Validation: reduce(s.rankVals[vj*width:vj*width+s.rankN[vj]], opts.UseMean),
			}
		}
	}
}

// assemble builds the result from the kernel table: per kernel, its
// per-repetition values and their reduction over repetitions (step (3)),
// then the category sums. Every per-repetition slice is carved from one
// slab.
func (s *scratch) assemble(agg *ConfigAggregate, opts Options) {
	reps := agg.Reps
	var catMetrics [numCategories]int
	n := 0
	for i := range s.table {
		m := len(metricsFor(s.table[i].kind))
		n += m
		if c := calltree.CategoryOf(s.table[i].kind); c != calltree.CategoryUnknown {
			catMetrics[c] = m
		}
	}
	for _, m := range catMetrics {
		n += m
	}
	slab := make([]StepValue, n*reps)
	carve := func() []StepValue {
		out := slab[:reps:reps]
		slab = slab[reps:]
		return out
	}

	kernels := make([]KernelAggregate, len(s.table))
	agg.Kernels = make(map[string]*KernelAggregate, len(s.table))
	s.buf = extend(s.buf[:0], reps)
	for slot := range s.table {
		st := &s.table[slot]
		k := &kernels[slot]
		k.Callpath, k.Name, k.Kind = st.key, st.name, st.kind
		for i := range k.Metrics() {
			perRep := carve()
			for r := range perRep {
				perRep[r] = s.repVals[(slot*reps+r)*NumMetrics+i]
			}
			k.PerRep[i] = perRep
			for r, sv := range perRep {
				s.buf[r] = sv.Train
			}
			k.Value[i].Train = reduce(s.buf, opts.UseMean)
			for r, sv := range perRep {
				s.buf[r] = sv.Validation
			}
			k.Value[i].Validation = reduce(s.buf, opts.UseMean)
		}
		agg.Kernels[st.key] = k
	}

	// Category sums (Eq. 6 inputs): sum the member kernels' aggregates in
	// sorted callpath order — floating-point addition is not associative.
	s.sorted = s.sorted[:0]
	for slot := range s.table {
		s.sorted = append(s.sorted, slot)
	}
	slices.SortFunc(s.sorted, func(a, b int) int { return strings.Compare(s.table[a].key, s.table[b].key) })
	for _, slot := range s.sorted {
		k := &kernels[slot]
		cat := k.Category()
		if cat == calltree.CategoryUnknown {
			continue
		}
		for i := range k.Metrics() {
			agg.Categories[cat][i] = agg.Categories[cat][i].Add(k.Value[i])
			perRep := agg.CategoriesPerRep[cat][i]
			if perRep == nil {
				perRep = carve()
				agg.CategoriesPerRep[cat][i] = perRep
			}
			for r, rv := range k.PerRep[i] {
				perRep[r] = perRep[r].Add(rv)
			}
		}
	}
}

// SortedKernels returns the aggregate's kernels sorted by callpath.
func (a *ConfigAggregate) SortedKernels() []*KernelAggregate {
	keys := make([]string, 0, len(a.Kernels))
	for k := range a.Kernels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*KernelAggregate, len(keys))
	for i, k := range keys {
		out[i] = a.Kernels[k]
	}
	return out
}
