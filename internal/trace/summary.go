package trace

import (
	"cmp"
	"slices"

	"extradeep/internal/calltree"
	"extradeep/internal/mathutil"
)

// SummaryOptions selects how a trace is reduced to its summary, and how
// summaries are merged across ranks and repetitions (aggregate.Options
// is this type).
type SummaryOptions struct {
	// SkipWarmupEpochs is the number of leading epochs whose measurements
	// are discarded. The default (when the trace has more than one epoch)
	// is 1, per the paper. Traces with a single epoch are used as-is.
	SkipWarmupEpochs int
	// UseMean aggregates with means instead of medians across steps,
	// ranks and repetitions (for the noise-resilience ablation).
	UseMean bool
}

// Reduce reduces xs with the median (default) or the mean, 0 for an
// empty slice. It is the last reader of xs: the median sorts xs in
// place, the mean sums it in order.
func (o SummaryOptions) Reduce(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if o.UseMean {
		m, _ := mathutil.Mean(xs) // non-empty by the guard above
		return m
	}
	m, _ := mathutil.MedianInPlace(xs) // non-empty by the guard above
	return m
}

// The metric indices of a summary's per-metric arrays: an event's
// duration, its invocation count and its transferred bytes. Memory
// kernels record all three, every other kernel the first two.
const (
	MetricTime = iota
	MetricVisits
	MetricBytes
	NumMetrics
)

// NumPhases is the number of step phases, the length of a summary's
// per-phase arrays (indexed by Phase).
const NumPhases = int(PhaseValidation) + 1

// MetricCount returns how many of the metrics, in index order, a kernel
// of the given kind records.
func MetricCount(kind calltree.Kind) int {
	if calltree.CategoryOf(kind) == calltree.CategoryMemory {
		return NumMetrics
	}
	return MetricBytes
}

// metricValue returns the value of metric index i for an event.
func metricValue(e Event, i int) float64 {
	switch i {
	case MetricTime:
		return e.Duration
	case MetricVisits:
		return e.Visits()
	default:
		return e.Bytes
	}
}

// KernelSummary is one kernel's share of a profile's summary.
type KernelSummary struct {
	// Key identifies the kernel: its callpath, or its name at top level.
	// Name and Kind are those of the kernel's last kept event.
	Key, Name string
	Kind      calltree.Kind
	// Has marks, per phase and metric index, the metrics some kept event
	// of the kernel recorded in that phase.
	Has [NumPhases][NumMetrics]bool
	// Value holds ṽ_kr: per phase and metric, the kernel's per-step sums
	// reduced over the kept steps of the phase. Only Has entries carry
	// data.
	Value [NumPhases][NumMetrics]float64
}

// Summary is what one rank's trace contributes to its configuration's
// aggregate: Fig. 2's step (1) and the reduction over steps of step
// (2), which depend on that trace alone.
type Summary struct {
	// Options are the options the summary was built under.
	Options SummaryOptions
	// TrainSteps is the number of kept training steps.
	TrainSteps int
	// Kernels lists the kernels with a kept event, in order of their
	// first such event.
	Kernels []KernelSummary
}

// Clone returns a copy of s that shares no memory with it.
func (s *Summary) Clone() *Summary {
	c := *s
	c.Kernels = slices.Clone(s.Kernels)
	return &c
}

// stepSlot is a step's position among the kept steps of its phase; pos <
// 0 marks a step that is not kept.
type stepSlot struct {
	phase Phase
	pos   int
}

// A Summarizer reduces traces to summaries, reusing its working memory
// from one trace to the next. The zero value is ready to use.
type Summarizer struct {
	sum Summary
	// rows locates, per kernel, phase and metric index, the kernel's
	// per-step sums v_n in arena; -1 marks a metric no kept event of the
	// kernel recorded in that phase.
	rows   [][NumPhases][NumMetrics]int
	local  map[string]int // key → index in sum.Kernels
	steps  []stepSlot     // step index → kept position
	epochs []EpochSpan
	skip   []int
	arena  []float64
}

// noRows is a rows entry with every row absent.
var noRows = [NumPhases][NumMetrics]int{{-1, -1, -1}, {-1, -1, -1}}

// Summarize reduces tr, which must be valid and sorted, to its summary
// under opts. Step (1): for every kernel and metric, the per-step sums
// v_n over the kept steps (warm-up epochs excluded), separated by phase
// and added in event order; asynchronous events between steps count
// toward the following step, and events after the last step are outside
// the profiled window. Step (2), first half: each kernel's sums reduced
// over the kept steps of their phase to ṽ_kr.
//
// A kernel's sums for a metric start at the first event that records
// the metric in the phase, zero before it. So a kernel whose kind
// switches from a compute to a memory kind within one trace gains its
// bytes at the first memory event, and its earlier steps carry zero
// bytes.
//
// The result lives in s and is valid until the next call; Clone keeps
// it.
func (s *Summarizer) Summarize(tr *Trace, opts SummaryOptions) *Summary {
	nTrain, nVal := s.keepSteps(tr, opts.SkipWarmupEpochs)
	s.sum.Options, s.sum.TrainSteps = opts, nTrain
	s.sum.Kernels = s.sum.Kernels[:0]
	s.rows = s.rows[:0]
	s.arena = s.arena[:0]
	if s.local == nil {
		s.local = make(map[string]int)
	}
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
		key := e.Callpath
		if key == "" {
			key = e.Name
		}
		k, ok := s.local[key]
		if !ok {
			k = len(s.sum.Kernels)
			s.local[key] = k
			s.sum.Kernels = append(s.sum.Kernels, KernelSummary{Key: key})
			s.rows = append(s.rows, noRows)
		}
		ks := &s.sum.Kernels[k]
		ks.Kind = e.Kind
		ks.Name = e.Name
		n := nTrain
		if sl.phase == PhaseValidation {
			n = nVal
		}
		row := &s.rows[k][sl.phase]
		for i := range MetricCount(e.Kind) {
			off := row[i]
			if off < 0 {
				off = len(s.arena)
				s.arena = slices.Grow(s.arena, n)[:off+n]
				clear(s.arena[off:])
				row[i] = off
			}
			s.arena[off+sl.pos] += metricValue(e, i)
		}
	}
	for k := range s.sum.Kernels {
		ks := &s.sum.Kernels[k]
		for ph, n := range [NumPhases]int{nTrain, nVal} {
			for i, off := range s.rows[k][ph] {
				if off >= 0 {
					ks.Has[ph][i] = true
					ks.Value[ph][i] = opts.Reduce(s.arena[off : off+n])
				}
			}
		}
	}
	return &s.sum
}

// Reset drops the summarizer's references to the last trace's strings,
// keeping its memory.
func (s *Summarizer) Reset() {
	clear(s.local)
	clear(s.sum.Kernels[:cap(s.sum.Kernels)])
}

// keepSteps fills s.steps with every step's position among the kept
// steps of its phase and returns the kept training and validation step
// counts. Steps of the skipped warm-up epochs are not kept.
func (s *Summarizer) keepSteps(tr *Trace, skipEpochs int) (nTrain, nVal int) {
	skip := s.warmupEpochs(tr, skipEpochs)
	s.steps = slices.Grow(s.steps[:0], len(tr.Steps))[:len(tr.Steps)]
	for i, st := range tr.Steps {
		sl := stepSlot{pos: -1}
		if !slices.Contains(skip, st.Epoch) {
			switch st.Phase {
			case PhaseTrain:
				sl = stepSlot{PhaseTrain, nTrain}
				nTrain++
			case PhaseValidation:
				sl = stepSlot{PhaseValidation, nVal}
				nVal++
			}
		}
		s.steps[i] = sl
	}
	return nTrain, nVal
}

// warmupEpochs returns the epoch indices to skip: the first `skip` epochs,
// but never all of them — at least one epoch of data must remain.
func (s *Summarizer) warmupEpochs(tr *Trace, skip int) []int {
	if skip <= 0 || len(tr.Epochs) <= skip {
		if len(tr.Epochs) > 1 && skip > 0 {
			skip = len(tr.Epochs) - 1
		} else {
			return nil
		}
	}
	s.epochs = append(s.epochs[:0], tr.Epochs...)
	slices.SortFunc(s.epochs, func(a, b EpochSpan) int { return cmp.Compare(a.Index, b.Index) })
	s.skip = s.skip[:0]
	for _, ep := range s.epochs[:skip] {
		s.skip = append(s.skip, ep.Index)
	}
	return s.skip
}
