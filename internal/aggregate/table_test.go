package aggregate

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"extradeep/internal/calltree"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/propcheck"
	"extradeep/internal/trace"
)

// refCase is one configuration's profiles with the options to aggregate
// them under.
type refCase struct {
	profiles []*profile.Profile
	opts     Options
}

// refKernel is one kernel of the generator's vocabulary. "App->shared"
// occurs in both phases; "bare" has no callpath, so it is keyed by name.
type refKernel struct {
	key, name string
	kind      calltree.Kind
}

var refKernels = []refKernel{
	{"App->train->conv", "conv", calltree.KindCUDA},
	{"App->train->allreduce", "allreduce", calltree.KindMPI},
	{"App->train->h2d", "h2d", calltree.KindMemcpy},
	{"App->shared", "shared", calltree.KindMemset},
	{"", "bare", calltree.KindNVTX},
	{"App->odd", "odd", calltree.KindUnknown},
}

var (
	refComputeKinds = []calltree.Kind{calltree.KindCUDA, calltree.KindMPI, calltree.KindNVTX, calltree.KindUnknown}
	refMemoryKinds  = []calltree.Kind{calltree.KindMemcpy, calltree.KindMemset}
)

// genRefTrace draws one rank's trace: 1–3 epochs of 1–3 training and 0–2
// validation steps, a random subset of the kernel vocabulary, events
// inside steps, between steps (asynchronous), before the first and after
// the last step, and repeated values. A kernel's kind may change from
// event to event, but once a memory kernel has switched to a non-memory
// kind within the trace it stays non-memory, the one direction the
// reference aggregates without failing.
func genRefTrace(r *propcheck.Rand, rank int) trace.Trace {
	tr := trace.Trace{Rank: rank}
	var present []int
	for i := range refKernels {
		if r.Intn(10) < 7 {
			present = append(present, i)
		}
	}
	kinds := make([]calltree.Kind, len(refKernels))
	for i, k := range refKernels {
		kinds[i] = k.kind
	}
	event := func(start float64) {
		if len(present) == 0 {
			return
		}
		i := present[r.Intn(len(present))]
		k := refKernels[i]
		if r.Intn(5) == 0 {
			if calltree.CategoryOf(kinds[i]) == calltree.CategoryMemory && r.Bool() {
				kinds[i] = refMemoryKinds[r.Intn(len(refMemoryKinds))]
			} else {
				kinds[i] = refComputeKinds[r.Intn(len(refComputeKinds))]
			}
		}
		name := k.name
		if r.Intn(10) == 0 {
			name += "'"
		}
		ev := trace.Event{Name: name, Kind: kinds[i], Callpath: k.key, Start: start, Count: r.IntRange(0, 3)}
		switch r.Intn(3) {
		case 0:
			ev.Duration = 0.005 // repeated values exercise the median's ties
		case 1:
			ev.Duration = r.Float64Range(0, 0.01)
		}
		if calltree.CategoryOf(ev.Kind) == calltree.CategoryMemory {
			ev.Bytes = float64(r.IntRange(0, 1<<16))
		}
		tr.Events = append(tr.Events, ev)
	}

	t := 1.0
	if r.Bool() {
		event(0.5) // before the first step: counts toward it
	}
	epochs := r.IntRange(1, 3)
	trainSteps, valSteps := r.IntRange(1, 3), r.IntRange(0, 2)
	for e := 0; e < epochs; e++ {
		epochStart := t
		for s := 0; s < trainSteps+valSteps; s++ {
			phase, idx := trace.PhaseTrain, s
			if s >= trainSteps {
				phase, idx = trace.PhaseValidation, s-trainSteps
			}
			start := t
			for n := r.IntRange(0, 3); n > 0; n-- {
				event(t + 0.001)
				t += 0.01
			}
			t += 0.002
			tr.Steps = append(tr.Steps, trace.StepSpan{Epoch: e, Index: idx, Phase: phase, Start: start, End: t})
			if r.Intn(3) == 0 {
				event(t + 0.0005) // between steps: counts toward the next
			}
			t += 0.001
		}
		tr.Epochs = append(tr.Epochs, trace.EpochSpan{Index: e, Start: epochStart, End: t})
	}
	if r.Intn(3) == 0 {
		event(t + 1) // after the last step: outside the profiled window
	}
	r.Shuffle(len(tr.Epochs), func(i, j int) { tr.Epochs[i], tr.Epochs[j] = tr.Epochs[j], tr.Epochs[i] })
	return tr
}

func genRefCase() propcheck.Gen[refCase] {
	return propcheck.Gen[refCase]{
		Generate: func(r *propcheck.Rand) refCase {
			reps, ranks := r.IntRange(1, 3), r.IntRange(1, 4)
			repIDs := r.Perm(5)[:reps] // repetition numbers need not be contiguous
			var ps []*profile.Profile
			for _, rep := range repIDs {
				for rank := 0; rank < ranks; rank++ {
					if len(ps) > 0 && r.Intn(6) == 0 {
						continue // a missing rank or repetition
					}
					ps = append(ps, &profile.Profile{
						App: "app", Params: []string{"p"}, Config: []float64{4},
						Rank: rank, Rep: rep + 1, Trace: genRefTrace(r, rank),
					})
				}
			}
			r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
			return refCase{
				profiles: ps,
				opts:     Options{SkipWarmupEpochs: r.IntRange(0, 2), UseMean: r.Bool()},
			}
		},
		Describe: func(c refCase) string {
			return fmt.Sprintf("{profiles=%d opts=%+v}", len(c.profiles), c.opts)
		},
	}
}

// asReference converts an aggregate to the reference's map shape,
// copying every slice.
func asReference(a *ConfigAggregate) *refConfigAggregate {
	out := &refConfigAggregate{
		App: a.App, Params: slices.Clone(a.Params), Point: a.Point.Clone(),
		Kernels:          make(map[string]*refKernelAggregate),
		Categories:       make(map[calltree.Category]map[measurement.Metric]StepValue),
		CategoriesPerRep: make(map[calltree.Category]map[measurement.Metric][]StepValue),
		Reps:             a.Reps, TrainSteps: a.TrainSteps,
	}
	for key, k := range a.Kernels {
		rk := &refKernelAggregate{
			Callpath: k.Callpath, Name: k.Name, Kind: k.Kind,
			PerRep: make(map[measurement.Metric][]StepValue),
			Value:  make(map[measurement.Metric]StepValue),
		}
		for i, m := range k.Metrics() {
			rk.PerRep[m] = slices.Clone(k.PerRep[i])
			rk.Value[m] = k.Value[i]
		}
		out.Kernels[key] = rk
	}
	for c := range a.CategoriesPerRep {
		for i, perRep := range a.CategoriesPerRep[c] {
			if perRep == nil {
				continue
			}
			cat, m := calltree.Category(c), MetricAt(i)
			if out.Categories[cat] == nil {
				out.Categories[cat] = make(map[measurement.Metric]StepValue)
				out.CategoriesPerRep[cat] = make(map[measurement.Metric][]StepValue)
			}
			out.Categories[cat][m] = a.Categories[c][i]
			out.CategoriesPerRep[cat][m] = slices.Clone(perRep)
		}
	}
	return out
}

// sameBits reports whether two step values agree bit for bit.
func sameBits(a, b StepValue) bool {
	return math.Float64bits(a.Train) == math.Float64bits(b.Train) &&
		math.Float64bits(a.Validation) == math.Float64bits(b.Validation)
}

// diffPerRep compares two per-repetition lists bit for bit.
func diffPerRep(what string, want, got []StepValue) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d repetitions, want %d", what, len(got), len(want))
	}
	for r := range want {
		if !sameBits(want[r], got[r]) {
			return fmt.Errorf("%s rep %d: %+v, want %+v", what, r, got[r], want[r])
		}
	}
	return nil
}

// diffReference reports the first field in which got differs from want,
// comparing every float by its bits.
func diffReference(want, got *refConfigAggregate) error {
	if want.App != got.App || !slices.Equal(want.Params, got.Params) || !slices.Equal(want.Point, got.Point) {
		return fmt.Errorf("identity %s%v%v, want %s%v%v", got.App, got.Params, got.Point, want.App, want.Params, want.Point)
	}
	if want.Reps != got.Reps || want.TrainSteps != got.TrainSteps {
		return fmt.Errorf("reps/train steps %d/%d, want %d/%d", got.Reps, got.TrainSteps, want.Reps, want.TrainSteps)
	}
	if len(want.Kernels) != len(got.Kernels) {
		return fmt.Errorf("%d kernels, want %d", len(got.Kernels), len(want.Kernels))
	}
	for key, wk := range want.Kernels {
		gk := got.Kernels[key]
		if gk == nil {
			return fmt.Errorf("kernel %q missing", key)
		}
		if wk.Callpath != gk.Callpath || wk.Name != gk.Name || wk.Kind != gk.Kind {
			return fmt.Errorf("kernel %q: %q/%q/%v, want %q/%q/%v", key, gk.Callpath, gk.Name, gk.Kind, wk.Callpath, wk.Name, wk.Kind)
		}
		if len(wk.Value) != len(gk.Value) || len(wk.PerRep) != len(gk.PerRep) {
			return fmt.Errorf("kernel %q: %d metrics, want %d", key, len(gk.Value), len(wk.Value))
		}
		for m, wv := range wk.Value {
			if gv, ok := gk.Value[m]; !ok || !sameBits(wv, gv) {
				return fmt.Errorf("kernel %q %s: value %+v, want %+v", key, m, gv, wv)
			}
			if err := diffPerRep(fmt.Sprintf("kernel %q %s", key, m), wk.PerRep[m], gk.PerRep[m]); err != nil {
				return err
			}
		}
	}
	if len(want.Categories) != len(got.Categories) {
		return fmt.Errorf("%d categories, want %d", len(got.Categories), len(want.Categories))
	}
	for cat, wm := range want.Categories {
		gm := got.Categories[cat]
		if len(wm) != len(gm) || len(want.CategoriesPerRep[cat]) != len(got.CategoriesPerRep[cat]) {
			return fmt.Errorf("category %v: %d metrics, want %d", cat, len(gm), len(wm))
		}
		for m, wv := range wm {
			if gv, ok := gm[m]; !ok || !sameBits(wv, gv) {
				return fmt.Errorf("category %v %s: %+v, want %+v", cat, m, gv, wv)
			}
			if err := diffPerRep(fmt.Sprintf("category %v %s", cat, m), want.CategoriesPerRep[cat][m], got.CategoriesPerRep[cat][m]); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestPropAggregateMatchesReference: the dense kernel table reproduces
// the map-based aggregation it replaced bit for bit — every value, name,
// kind and metric set — over multi-rank, multi-repetition sets with
// kernels missing from some ranks, repetitions and phases, asynchronous
// events, kinds changing across events and profiles, both reducers and
// 0–2 skipped warm-up epochs.
func TestPropAggregateMatchesReference(t *testing.T) {
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 300}, genRefCase(), func(c refCase) error {
		want, err := referenceAggregate(c.profiles, c.opts)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		got, err := Aggregate(c.profiles, c.opts)
		if err != nil {
			return fmt.Errorf("aggregate: %w", err)
		}
		return diffReference(want, asReference(got))
	})
}

// TestAggregateScratchNeverLeaks: a result shares no memory with the
// pooled scratch or with another result. Aggregating a second, larger
// configuration on the same goroutine leaves the first result unchanged,
// and appending to one per-repetition slice leaves its neighbours alone.
func TestAggregateScratchNeverLeaks(t *testing.T) {
	first, err := Aggregate(makeProfiles(2, 2, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	snapshot := asReference(first)
	second, err := Aggregate(makeProfiles(4, 3, 0.02, 0.004), Options{UseMean: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := diffReference(snapshot, asReference(first)); err != nil {
		t.Fatalf("first result changed by the second aggregation: %v", err)
	}
	for _, k := range second.SortedKernels() {
		for i := range k.Metrics() {
			k.PerRep[i] = append(k.PerRep[i], StepValue{Train: math.Inf(1), Validation: math.Inf(1)})
		}
	}
	for c := range second.CategoriesPerRep {
		for i, perRep := range second.CategoriesPerRep[c] {
			if perRep != nil {
				second.CategoriesPerRep[c][i] = append(perRep, StepValue{Train: math.Inf(1)})
			}
		}
	}
	for _, k := range second.Kernels {
		for i := range k.Metrics() {
			for _, sv := range k.PerRep[i][:second.Reps] {
				if math.IsInf(sv.Train, 0) || math.IsInf(sv.Validation, 0) {
					t.Fatalf("kernel %s: an append to another slice overwrote its per-rep values", k.Callpath)
				}
			}
		}
	}
	if err := diffReference(snapshot, asReference(first)); err != nil {
		t.Fatalf("first result changed by appends to the second: %v", err)
	}
}

// kindSwitchProfile is one rank whose kernel "App->k" runs as a CUDA
// kernel in the first kept training step and as a memcpy in the next
// two: a compute-to-memory kind switch within one phase.
func kindSwitchProfile(rank int) *profile.Profile {
	tr := trace.Trace{Rank: rank}
	kinds := []calltree.Kind{calltree.KindCUDA, calltree.KindMemcpy, calltree.KindMemcpy}
	for s, kind := range kinds {
		start := float64(s)
		tr.Steps = append(tr.Steps, trace.StepSpan{Index: s, Phase: trace.PhaseTrain, Start: start, End: start + 0.5})
		tr.Events = append(tr.Events, trace.Event{
			Name: "k", Kind: kind, Callpath: "App->k", Start: start + 0.1,
			Duration: 0.1 * float64(s+1), Bytes: 100 * float64(s),
		})
	}
	tr.Epochs = []trace.EpochSpan{{Index: 0, Start: 0, End: 3}}
	return &profile.Profile{App: "app", Params: []string{"p"}, Config: []float64{2}, Rank: rank, Rep: 1, Trace: tr}
}

// TestAggregateKindSwitchWithinPhase: a kernel switching from a compute
// to a memory kind within one phase aggregates instead of failing. Its
// bytes row starts at the first memory event, so earlier steps carry zero
// bytes: the per-step bytes are (0, 100, 200), the times (0.1, 0.2, 0.3).
func TestAggregateKindSwitchWithinPhase(t *testing.T) {
	ps := []*profile.Profile{kindSwitchProfile(0), kindSwitchProfile(1)}
	agg, err := Aggregate(ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := agg.Kernels["App->k"]
	if k == nil || k.Kind != calltree.KindMemcpy || len(k.Metrics()) != NumMetrics {
		t.Fatalf("kernel = %+v, want a memcpy recording every metric", k)
	}
	if got := k.Value[idxBytes].Train; got != 100 {
		t.Errorf("bytes = %v, want 100", got)
	}
	if got := k.Value[idxTime].Train; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("time = %v, want 0.2", got)
	}
	again, err := Aggregate(ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := diffReference(asReference(agg), asReference(again)); err != nil {
		t.Errorf("aggregation is not deterministic: %v", err)
	}
}
