package engine

import (
	"testing"

	"extradeep/internal/calltree"
	"extradeep/internal/epoch"
	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
	"extradeep/internal/trace"
)

func testConfig(ranks int) RunConfig {
	return RunConfig{
		System:      hardware.DEEP(),
		Strategy:    parallel.DataParallel{FusionBuckets: 4},
		Ranks:       ranks,
		WeakScaling: true,
		Seed:        1,
		SampleRanks: 2,
	}
}

func mustBenchmark(t *testing.T, name string) Benchmark {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestByNameAllBenchmarks(t *testing.T) {
	bs, err := Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 5 {
		t.Fatalf("got %d benchmarks, want 5", len(bs))
	}
	for _, b := range bs {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
	if _, err := ByName("mnist"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestBenchmarkValidateCatchesBadFields(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	b.BatchSize = 0
	if b.Validate() == nil {
		t.Error("zero batch accepted")
	}
	b = mustBenchmark(t, "cifar10")
	b.Model = nil
	if b.Validate() == nil {
		t.Error("nil model accepted")
	}
}

func TestEpochParamsWeakScaling(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	strat := parallel.DataParallel{}
	p4 := EpochParams(b, strat, 4, true)
	p16 := EpochParams(b, strat, 16, true)
	if p4.TrainSteps() != p16.TrainSteps() {
		t.Errorf("weak scaling: steps %d vs %d, want equal", p4.TrainSteps(), p16.TrainSteps())
	}
	if !mathutil.Close(p4.DataParallel, 4) || !mathutil.Close(p4.ModelParallel, 1) {
		t.Errorf("G,M = %v,%v", p4.DataParallel, p4.ModelParallel)
	}
}

func TestEpochParamsStrongScaling(t *testing.T) {
	// Strong scaling fixes the global batch: the number of steps per
	// epoch stays constant while the per-worker batch shrinks.
	b := mustBenchmark(t, "cifar10")
	strat := parallel.DataParallel{}
	p4 := EpochParams(b, strat, 4, false)
	p16 := EpochParams(b, strat, 16, false)
	if p16.TrainSteps() != p4.TrainSteps() {
		t.Errorf("strong scaling: steps %d vs %d, want equal (fixed global batch)", p16.TrainSteps(), p4.TrainSteps())
	}
	if p16.BatchSize >= p4.BatchSize {
		t.Errorf("strong scaling: per-worker batch should shrink (%v vs %v)", p16.BatchSize, p4.BatchSize)
	}
	// Global batch = per-worker batch × workers stays fixed.
	if g4, g16 := p4.BatchSize*4, p16.BatchSize*16; !mathutil.Close(g4, g16) {
		t.Errorf("global batch changed: %v vs %v", g4, g16)
	}
}

func TestPerWorkerBatchFloorsAtOne(t *testing.T) {
	b := mustBenchmark(t, "imdb") // B = 128, global batch 1024
	if got := PerWorkerBatch(b, parallel.DataParallel{}, 4096, false); !mathutil.Close(got, 1) {
		t.Errorf("per-worker batch = %v, want clamp to 1", got)
	}
}

func TestSetupFunc(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	f := SetupFunc(b, parallel.DataParallel{}, true)
	p := f(measurement.Point{8})
	if !mathutil.Close(p.DataParallel, 8) {
		t.Errorf("setup G = %v, want 8", p.DataParallel)
	}
}

func TestSetupFromFlags(t *testing.T) {
	strat := parallel.DataParallel{}
	named, err := SetupFromFlags("cifar10", strat, true, 0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := SetupFunc(mustBenchmark(t, "cifar10"), strat, true)(measurement.Point{8})
	if got := named(measurement.Point{8}); got != want {
		t.Errorf("benchmark setup = %+v, want %+v", got, want)
	}

	for _, weak := range []bool{false, true} {
		explicit, err := SetupFromFlags("", strat, weak, 32, 1000, 100, 2)
		if err != nil {
			t.Fatal(err)
		}
		train := 1000.0
		if weak {
			train *= 4
		}
		want := epoch.Params{BatchSize: 32, TrainSamples: train, ValSamples: 100, DataParallel: 4, ModelParallel: 2}
		if got := explicit(measurement.Point{4}); got != want {
			t.Errorf("explicit setup (weak=%v) = %+v, want %+v", weak, got, want)
		}
	}

	if _, err := SetupFromFlags("nope", strat, true, 0, 0, 0, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := SetupFromFlags("", strat, true, 32, 0, 0, 1); err == nil {
		t.Error("missing -train-samples accepted")
	}
}

func TestProfileBasicShape(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	profiles, err := Profile(b, testConfig(4), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 { // SampleRanks = 2
		t.Fatalf("got %d profiles, want 2", len(profiles))
	}
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if !p.Sampled {
			t.Error("profile not marked sampled")
		}
		if len(p.Trace.Epochs) != 2 {
			t.Errorf("epochs = %d, want 2", len(p.Trace.Epochs))
		}
		// 5 train + validation steps per epoch.
		train := p.Trace.StepsOfPhase(trace.PhaseTrain)
		if len(train) != 10 {
			t.Errorf("train steps = %d, want 10", len(train))
		}
	}
}

func TestProfileDeterministic(t *testing.T) {
	b := mustBenchmark(t, "imdb")
	a1, err := Profile(b, testConfig(4), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Profile(b, testConfig(4), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1[0].Trace.Events) != len(a2[0].Trace.Events) {
		t.Fatal("event counts differ")
	}
	for i := range a1[0].Trace.Events {
		if a1[0].Trace.Events[i].Duration != a2[0].Trace.Events[i].Duration {
			t.Fatal("durations differ across identical runs")
		}
	}
}

func TestProfileRepetitionsDiffer(t *testing.T) {
	b := mustBenchmark(t, "imdb")
	r1, err := Profile(b, testConfig(4), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Profile(b, testConfig(4), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1[0].Trace.Events {
		if r1[0].Trace.Events[i].Duration != r2[0].Trace.Events[i].Duration {
			same = false
			break
		}
	}
	if same {
		t.Error("different repetitions produced identical traces")
	}
}

func TestProfileContainsExpectedKernels(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	profiles, err := Profile(b, testConfig(4), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	kinds := make(map[calltree.Kind]bool)
	for _, e := range profiles[0].Trace.Events {
		names[e.Name] = true
		kinds[e.Kind] = true
	}
	for _, want := range []string{
		"sys_read", "Memcpy HtoD", "Memcpy DtoH", "Memset",
		"MPI_Allreduce", "sgd_update_kernel", "EigenMetaKernel",
		"cudaLaunchKernel", "training_step",
	} {
		if !names[want] {
			t.Errorf("kernel %q missing from trace", want)
		}
	}
	for _, want := range []calltree.Kind{
		calltree.KindCUDA, calltree.KindMPI, calltree.KindMemcpy,
		calltree.KindMemset, calltree.KindOS, calltree.KindNVTX,
		calltree.KindCUDAAPI, calltree.KindCuDNN,
	} {
		if !kinds[want] {
			t.Errorf("kind %v missing from trace", want)
		}
	}
}

func TestProfileNCCLOnJURECA(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	cfg := testConfig(8)
	cfg.System = hardware.JURECA()
	profiles, err := Profile(b, cfg, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	sawNCCL := false
	for _, e := range profiles[0].Trace.Events {
		if e.Kind == calltree.KindNCCL {
			sawNCCL = true
		}
		if e.Kind == calltree.KindMPI {
			t.Errorf("MPI kernel %q on the NCCL system", e.Name)
		}
	}
	if !sawNCCL {
		t.Error("no NCCL kernels on JURECA")
	}
}

func TestProfileGranularityLayer(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	cfgType := testConfig(4)
	cfgLayer := testConfig(4)
	cfgLayer.Granularity = GranularityLayer
	pType, err := Profile(b, cfgType, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	pLayer, err := Profile(b, cfgLayer, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	countPaths := func(ps []*trace.Event) int { return 0 }
	_ = countPaths
	paths := func(tr trace.Trace) map[string]bool {
		out := make(map[string]bool)
		for _, e := range tr.Events {
			out[e.Callpath] = true
		}
		return out
	}
	if len(paths(pLayer[0].Trace)) <= len(paths(pType[0].Trace)) {
		t.Errorf("layer granularity should yield more distinct callpaths (%d vs %d)",
			len(paths(pLayer[0].Trace)), len(paths(pType[0].Trace)))
	}
}

func TestProfileWarmupEpochSlower(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	profiles, err := Profile(b, testConfig(2), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := profiles[0].Trace
	var e0, e1 float64
	for _, s := range tr.Steps {
		if s.Phase != trace.PhaseTrain {
			continue
		}
		if s.Epoch == 0 {
			e0 += s.Duration()
		} else {
			e1 += s.Duration()
		}
	}
	if e0 <= e1 {
		t.Errorf("warm-up epoch (%v) should be slower than epoch 1 (%v)", e0, e1)
	}
}

func TestProfileValidationRejectsBadConfig(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	cfg := testConfig(4)
	cfg.Ranks = 0
	if _, err := Profile(b, cfg, 1, true); err == nil {
		t.Error("zero ranks accepted")
	}
	cfg = testConfig(4)
	cfg.Ranks = 10_000
	if _, err := Profile(b, cfg, 1, true); err == nil {
		t.Error("over-capacity ranks accepted")
	}
	cfg = testConfig(4)
	cfg.Strategy = nil
	if _, err := Profile(b, cfg, 1, true); err == nil {
		t.Error("nil strategy accepted")
	}
}

func TestProfileFullHasAllSteps(t *testing.T) {
	b := mustBenchmark(t, "imdb") // smallest benchmark: full profile is cheap
	cfg := testConfig(2)
	cfg.SampleRanks = 1
	profiles, err := Profile(b, cfg, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ep := EpochParams(b, cfg.Strategy, cfg.Ranks, cfg.WeakScaling)
	train := profiles[0].Trace.StepsOfPhase(trace.PhaseTrain)
	if len(train) != 2*ep.TrainSteps() {
		t.Errorf("full profile train steps = %d, want %d", len(train), 2*ep.TrainSteps())
	}
	if profiles[0].Sampled {
		t.Error("full profile marked sampled")
	}
}

func TestStepTimeGrowsWithScaleWeak(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	prev := 0.0
	for _, ranks := range []int{2, 8, 32, 64} {
		st, err := Stats(b, testConfig(ranks))
		if err != nil {
			t.Fatal(err)
		}
		if st.StepTime <= prev {
			t.Errorf("step time at %d ranks = %v, not growing", ranks, st.StepTime)
		}
		prev = st.StepTime
	}
}

func TestStatsEpochTimes(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	st, err := Stats(b, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if st.TrainSteps != 195 { // 50000·4/4/256
		t.Errorf("train steps = %d, want 195", st.TrainSteps)
	}
	if st.ExecTimePerEpoch <= 0 || st.SampledExecPerEpoch <= 0 {
		t.Error("non-positive epoch times")
	}
	if st.SampledExecPerEpoch >= st.ExecTimePerEpoch {
		t.Error("sampling should reduce the profiled window")
	}
	if st.ProfilingTimeFull <= st.ProfilingTimeSampled {
		t.Error("full profiling should cost more overhead")
	}
}

func TestStatsSavingsNearPaper(t *testing.T) {
	// The paper reports ≈94.9% average savings across the five
	// benchmarks on 64 nodes (Fig. 8). Verify the simulated average
	// falls in the 85–99% band.
	bs, err := Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range bs {
		st, err := Stats(b, testConfig(64))
		if err != nil {
			t.Fatal(err)
		}
		s := st.SavingsFraction()
		if s <= 0 || s >= 1 {
			t.Errorf("%s: savings = %v out of range", b.Name, s)
		}
		sum += s
	}
	avg := sum / float64(len(bs))
	if avg < 0.85 || avg > 0.995 {
		t.Errorf("average savings = %v, want ≈0.949", avg)
	}
}

func TestStatsImageNetDominates(t *testing.T) {
	// Fig. 8: ImageNet's epoch dwarfs the others.
	imagenet, err := Stats(mustBenchmark(t, "imagenet"), testConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	cifar, err := Stats(mustBenchmark(t, "cifar10"), testConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	imdb, err := Stats(mustBenchmark(t, "imdb"), testConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if imagenet.ExecTimePerEpoch <= 5*cifar.ExecTimePerEpoch {
		t.Errorf("ImageNet epoch (%v) should dwarf CIFAR-10 (%v)", imagenet.ExecTimePerEpoch, cifar.ExecTimePerEpoch)
	}
	if imdb.ExecTimePerEpoch >= cifar.ExecTimePerEpoch {
		t.Errorf("IMDB epoch (%v) should undercut CIFAR-10 (%v)", imdb.ExecTimePerEpoch, cifar.ExecTimePerEpoch)
	}
}

func TestSamplingLessEffectiveForShortBenchmarks(t *testing.T) {
	// Fig. 8: the strategy saves most on long epochs (ImageNet) and
	// least on short ones (IMDB).
	imagenet, _ := Stats(mustBenchmark(t, "imagenet"), testConfig(64))
	imdb, _ := Stats(mustBenchmark(t, "imdb"), testConfig(64))
	if imagenet.SavingsFraction() <= imdb.SavingsFraction() {
		t.Errorf("ImageNet savings (%v) should exceed IMDB savings (%v)",
			imagenet.SavingsFraction(), imdb.SavingsFraction())
	}
}

func TestTensorParallelStepCostsDiffer(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	dataCfg := testConfig(16)
	tensorCfg := testConfig(16)
	tensorCfg.Strategy = parallel.TensorParallel{GroupSize: 4}
	dataStats, err := Stats(b, dataCfg)
	if err != nil {
		t.Fatal(err)
	}
	tensorStats, err := Stats(b, tensorCfg)
	if err != nil {
		t.Fatal(err)
	}
	if dataStats.StepTime == tensorStats.StepTime {
		t.Error("strategies should produce different step costs")
	}
}

func TestStatsZeroTrainStepsRejectedByProfile(t *testing.T) {
	// A dataset smaller than one global batch yields 0 steps per epoch.
	b := mustBenchmark(t, "cifar10")
	b.Dataset.TrainSamples = 100 // < one batch of 256
	cfg := testConfig(2)
	cfg.WeakScaling = false
	if _, err := Profile(b, cfg, 1, true); err == nil {
		t.Error("zero-step configuration accepted")
	}
}

func TestInitTimeGrowsWithDataset(t *testing.T) {
	small := InitTime(mustBenchmark(t, "imdb"))
	big := InitTime(mustBenchmark(t, "imagenet"))
	if big <= small {
		t.Error("InitTime should grow with dataset size")
	}
}
