package aggregate

import (
	"testing"

	"extradeep/internal/calltree"
	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/trace"
)

// Metric indices of the metric-indexed result arrays.
var (
	idxTime   = MetricIndex(measurement.MetricTime)
	idxVisits = MetricIndex(measurement.MetricVisits)
	idxBytes  = MetricIndex(measurement.MetricBytes)
)

// makeTrace builds a trace with the given number of epochs, train steps
// per epoch and one validation step per epoch. kernelDur is the duration
// the compute kernel runs per step; commDur the MPI time per train step.
func makeTrace(rank, epochs, trainSteps int, kernelDur, commDur float64) trace.Trace {
	tr := trace.Trace{Rank: rank}
	t := 0.0
	for e := 0; e < epochs; e++ {
		epochStart := t
		for s := 0; s < trainSteps; s++ {
			start := t
			dur := kernelDur
			if e == 0 {
				dur *= 3 // warm-up distortion in epoch 0
			}
			tr.Events = append(tr.Events,
				trace.Event{Name: "EigenMetaKernel", Kind: calltree.KindCUDA, Callpath: "App->train->EigenMetaKernel", Start: start + 0.001, Duration: dur},
				trace.Event{Name: "MPI_Allreduce", Kind: calltree.KindMPI, Callpath: "App->train->MPI_Allreduce", Start: start + 0.001 + dur, Duration: commDur},
				trace.Event{Name: "Memcpy HtoD", Kind: calltree.KindMemcpy, Callpath: "App->train->Memcpy HtoD", Start: start + 0.0005, Duration: 0.0002, Bytes: 4096},
			)
			stepEnd := start + 0.001 + dur + commDur + 0.001
			tr.Steps = append(tr.Steps, trace.StepSpan{Epoch: e, Index: s, Phase: trace.PhaseTrain, Start: start, End: stepEnd})
			t = stepEnd
			// Async event between steps.
			tr.Events = append(tr.Events,
				trace.Event{Name: "Memcpy DtoH", Kind: calltree.KindMemcpy, Callpath: "App->train->Memcpy DtoH", Start: t + 0.0001, Duration: 0.0003, Bytes: 2048})
			t += 0.001
		}
		// Validation step.
		vStart := t
		tr.Events = append(tr.Events,
			trace.Event{Name: "EigenMetaKernel", Kind: calltree.KindCUDA, Callpath: "App->test->EigenMetaKernel", Start: vStart + 0.001, Duration: kernelDur / 2})
		vEnd := vStart + 0.001 + kernelDur/2 + 0.001
		tr.Steps = append(tr.Steps, trace.StepSpan{Epoch: e, Index: trainSteps, Phase: trace.PhaseValidation, Start: vStart, End: vEnd})
		t = vEnd
		tr.Epochs = append(tr.Epochs, trace.EpochSpan{Index: e, Start: epochStart, End: t})
		t += 0.002
	}
	tr.Sort()
	return tr
}

func makeProfiles(ranks, reps int, kernelDur, commDur float64) []*profile.Profile {
	var out []*profile.Profile
	for rep := 1; rep <= reps; rep++ {
		for rank := 0; rank < ranks; rank++ {
			out = append(out, &profile.Profile{
				App:      "cifar10",
				Params:   []string{"p"},
				Config:   []float64{float64(ranks)},
				Rank:     rank,
				Rep:      rep,
				WallTime: 1.5,
				Sampled:  true,
				Trace:    makeTrace(rank, 2, 5, kernelDur, commDur),
			})
		}
	}
	return out
}

func TestAggregateEmpty(t *testing.T) {
	if _, err := Aggregate(nil, DefaultOptions()); err == nil {
		t.Error("empty input accepted")
	}
}

func TestAggregateMixedConfigsRejected(t *testing.T) {
	a := makeProfiles(2, 1, 0.01, 0.002)
	b := makeProfiles(4, 1, 0.01, 0.002)
	if _, err := Aggregate(append(a, b...), DefaultOptions()); err == nil {
		t.Error("mixed configurations accepted")
	}
}

func TestAggregateBasicStructure(t *testing.T) {
	agg, err := Aggregate(makeProfiles(4, 3, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if agg.App != "cifar10" || !mathutil.Close(agg.Point[0], 4) {
		t.Errorf("identity wrong: %s %v", agg.App, agg.Point)
	}
	if agg.Reps != 3 {
		t.Errorf("Reps = %d, want 3", agg.Reps)
	}
	if agg.TrainSteps != 5 {
		t.Errorf("TrainSteps = %d, want 5", agg.TrainSteps)
	}
	for _, want := range []string{
		"App->train->EigenMetaKernel",
		"App->train->MPI_Allreduce",
		"App->train->Memcpy HtoD",
		"App->train->Memcpy DtoH",
		"App->test->EigenMetaKernel",
	} {
		if agg.Kernels[want] == nil {
			t.Errorf("kernel %q missing", want)
		}
	}
}

func TestAggregateSkipsWarmupEpoch(t *testing.T) {
	// Epoch 0 has 3× kernel durations; with warm-up skipping, the
	// aggregated kernel time must reflect epoch 1 only.
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := agg.Kernels["App->train->EigenMetaKernel"]
	got := k.Value[idxTime].Train
	if got < 0.009 || got > 0.011 {
		t.Errorf("train time = %v, want ≈0.01 (epoch-1 value)", got)
	}
}

func TestAggregateWithoutWarmupSkipping(t *testing.T) {
	opts := Options{SkipWarmupEpochs: 0}
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), opts)
	if err != nil {
		t.Fatal(err)
	}
	k := agg.Kernels["App->train->EigenMetaKernel"]
	got := k.Value[idxTime].Train
	// Median over 10 steps (5 at 0.03, 5 at 0.01) = 0.02.
	if got < 0.019 || got > 0.021 {
		t.Errorf("train time = %v, want ≈0.02 (median across both epochs)", got)
	}
}

func TestAggregateVisitsMetric(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := agg.Kernels["App->train->EigenMetaKernel"]
	if got := k.Value[idxVisits].Train; !mathutil.Close(got, 1) {
		t.Errorf("visits per train step = %v, want 1", got)
	}
	v := agg.Kernels["App->test->EigenMetaKernel"]
	if got := v.Value[idxVisits].Validation; !mathutil.Close(got, 1) {
		t.Errorf("visits per validation step = %v, want 1", got)
	}
}

func TestAggregateBytesOnlyForMemoryOps(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mem := agg.Kernels["App->train->Memcpy HtoD"]
	if got := mem.Value[idxBytes].Train; !mathutil.Close(got, 4096) {
		t.Errorf("memcpy bytes = %v, want 4096", got)
	}
	comp := agg.Kernels["App->train->EigenMetaKernel"]
	if len(comp.Metrics()) > idxBytes || comp.PerRep[idxBytes] != nil {
		t.Error("compute kernel carries a bytes metric")
	}
}

func TestAggregateAsyncEventsAttributedToFollowingStep(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	async := agg.Kernels["App->train->Memcpy DtoH"]
	if async == nil {
		t.Fatal("async kernel missing")
	}
	// The DtoH copy fires after each train step; attributed to the
	// following step it appears in train steps (and the validation step
	// absorbs the copy after the last train step of the epoch).
	if async.Value[idxTime].Train <= 0 {
		t.Error("async kernel has no train-step time")
	}
}

func TestAggregateValidationSeparatedFromTrain(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := agg.Kernels["App->test->EigenMetaKernel"]
	if v.Value[idxTime].Train != 0 {
		t.Error("validation kernel leaked into train phase")
	}
	if got := v.Value[idxTime].Validation; got < 0.004 || got > 0.006 {
		t.Errorf("validation time = %v, want ≈0.005", got)
	}
}

func TestAggregateCategories(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	comp := agg.Categories[calltree.CategoryComputation][idxTime]
	comm := agg.Categories[calltree.CategoryCommunication][idxTime]
	mem := agg.Categories[calltree.CategoryMemory][idxTime]
	if comp.Train < 0.009 {
		t.Errorf("computation train = %v", comp.Train)
	}
	if comm.Train < 0.0019 || comm.Train > 0.0021 {
		t.Errorf("communication train = %v, want ≈0.002", comm.Train)
	}
	if mem.Train <= 0 {
		t.Errorf("memory train = %v", mem.Train)
	}
	if comm.Validation != 0 {
		t.Error("communication leaked into validation")
	}
}

func TestAggregateCategoryIsSumOfKernels(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 2, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, k := range agg.Kernels {
		if k.Category() == calltree.CategoryComputation {
			sum += k.Value[idxTime].Train
		}
	}
	got := agg.Categories[calltree.CategoryComputation][idxTime].Train
	if diff := got - sum; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("category sum = %v, kernel sum = %v", got, sum)
	}
}

func TestAggregatePerRepLengths(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 4, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range agg.Kernels {
		for i, metric := range k.Metrics() {
			if perRep := k.PerRep[i]; len(perRep) != 4 {
				t.Errorf("kernel %s metric %s: perRep len = %d, want 4", k.Callpath, metric, len(perRep))
			}
		}
	}
	for cat, byMetric := range agg.CategoriesPerRep {
		for i, perRep := range byMetric {
			if perRep != nil && len(perRep) != 4 {
				t.Errorf("category %v metric %s: perRep len = %d, want 4", calltree.Category(cat), MetricAt(i), len(perRep))
			}
		}
	}
}

func TestAggregateMedianRobustAcrossRanks(t *testing.T) {
	// One rank is 10× slower (straggler); the median over ranks should
	// stay near the typical value.
	profiles := makeProfiles(5, 1, 0.01, 0.002)
	slow := makeTrace(4, 2, 5, 0.1, 0.002)
	profiles[4].Trace = slow
	agg, err := Aggregate(profiles, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := agg.Kernels["App->train->EigenMetaKernel"].Value[idxTime].Train
	if got > 0.02 {
		t.Errorf("median over ranks = %v, straggler leaked in", got)
	}
}

func TestAggregateMeanOption(t *testing.T) {
	profiles := makeProfiles(5, 1, 0.01, 0.002)
	profiles[4].Trace = makeTrace(4, 2, 5, 0.1, 0.002)
	opts := DefaultOptions()
	opts.UseMean = true
	agg, err := Aggregate(profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := agg.Kernels["App->train->EigenMetaKernel"].Value[idxTime].Train
	if got < 0.02 {
		t.Errorf("mean over ranks = %v, should be dragged by straggler", got)
	}
}

func TestSortedKernels(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ks := agg.SortedKernels()
	for i := 1; i < len(ks); i++ {
		if ks[i-1].Callpath >= ks[i].Callpath {
			t.Fatalf("kernels not sorted: %q before %q", ks[i-1].Callpath, ks[i].Callpath)
		}
	}
}

func TestStepValueAdd(t *testing.T) {
	a := StepValue{Train: 1, Validation: 2}
	b := StepValue{Train: 3, Validation: 4}
	c := a.Add(b)
	if !mathutil.Close(c.Train, 4) || !mathutil.Close(c.Validation, 6) {
		t.Errorf("Add = %+v", c)
	}
}

func TestSingleEpochTraceUsedAsIs(t *testing.T) {
	// A trace with a single epoch cannot lose it to warm-up skipping.
	var profiles []*profile.Profile
	for rank := 0; rank < 2; rank++ {
		profiles = append(profiles, &profile.Profile{
			App: "x", Params: []string{"p"}, Config: []float64{2},
			Rank: rank, Rep: 1,
			Trace: makeTrace(rank, 1, 3, 0.01, 0.001),
		})
	}
	agg, err := Aggregate(profiles, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := agg.Kernels["App->train->EigenMetaKernel"]
	// Epoch 0 is the warm-up epoch with 3× duration, but it is the only
	// epoch, so its data must be used.
	got := k.Value[idxTime].Train
	if got < 0.029 || got > 0.031 {
		t.Errorf("single-epoch value = %v, want ≈0.03", got)
	}
}
