package epoch

import (
	"math"
	"testing"

	"extradeep/internal/aggregate"
	"extradeep/internal/calltree"
	"extradeep/internal/measurement"
)

func TestParamsValidate(t *testing.T) {
	good := Params{BatchSize: 256, TrainSamples: 50000, ValSamples: 10000, DataParallel: 4, ModelParallel: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BatchSize = 0
	if bad.Validate() == nil {
		t.Error("zero batch size accepted")
	}
	bad = good
	bad.DataParallel = 0
	if bad.Validate() == nil {
		t.Error("zero G accepted")
	}
	bad = good
	bad.TrainSamples = -1
	if bad.Validate() == nil {
		t.Error("negative dataset accepted")
	}
}

func TestTrainStepsEq2(t *testing.T) {
	// n_t = floor((Dt/(G/M))/B): 50000 samples, G=4, M=1, B=256
	// → floor(12500/256) = 48.
	p := Params{BatchSize: 256, TrainSamples: 50000, DataParallel: 4, ModelParallel: 1}
	if got := p.TrainSteps(); got != 48 {
		t.Errorf("TrainSteps = %d, want 48", got)
	}
}

func TestTrainStepsModelParallel(t *testing.T) {
	// With M=4 each model-parallel group of 4 ranks consumes one shard:
	// G=16, M=4 → effective data-parallel groups G/M=4.
	p := Params{BatchSize: 256, TrainSamples: 50000, DataParallel: 16, ModelParallel: 4}
	if got := p.TrainSteps(); got != 48 {
		t.Errorf("TrainSteps = %d, want 48", got)
	}
}

func TestValStepsEq3(t *testing.T) {
	p := Params{BatchSize: 100, ValSamples: 1050, DataParallel: 1, ModelParallel: 1}
	if got := p.ValSteps(); got != 10 {
		t.Errorf("ValSteps = %d, want 10", got)
	}
}

func TestWeakScalingKeepsStepsConstant(t *testing.T) {
	// Weak scaling multiplies D_t by the rank count; n_t stays constant.
	base := 50000.0
	for _, ranks := range []float64{2, 4, 8, 16} {
		p := Params{BatchSize: 256, TrainSamples: base * ranks, DataParallel: ranks, ModelParallel: 1}
		if got := p.TrainSteps(); got != 195 {
			t.Errorf("ranks=%v: TrainSteps = %d, want 195", ranks, got)
		}
	}
}

func TestStrongScalingShrinksSteps(t *testing.T) {
	p2 := Params{BatchSize: 256, TrainSamples: 50000, DataParallel: 2, ModelParallel: 1}
	p8 := Params{BatchSize: 256, TrainSamples: 50000, DataParallel: 8, ModelParallel: 1}
	if p8.TrainSteps() >= p2.TrainSteps() {
		t.Errorf("strong scaling: steps %d (8 ranks) should be < %d (2 ranks)",
			p8.TrainSteps(), p2.TrainSteps())
	}
}

func TestKernelValueEq4(t *testing.T) {
	p := Params{BatchSize: 10, TrainSamples: 1000, ValSamples: 100, DataParallel: 1, ModelParallel: 1}
	// n_t = 100, n_v = 10.
	sv := aggregate.StepValue{Train: 0.5, Validation: 0.2}
	want := 100*0.5 + 10*0.2
	if got := KernelValue(sv, p); math.Abs(got-want) > 1e-12 {
		t.Errorf("KernelValue = %v, want %v", got, want)
	}
}

func TestCategoryPath(t *testing.T) {
	if CategoryPath(calltree.CategoryComputation) != CompPath ||
		CategoryPath(calltree.CategoryCommunication) != CommPath ||
		CategoryPath(calltree.CategoryMemory) != MemPath {
		t.Error("category paths wrong")
	}
	if CategoryPath(calltree.CategoryUnknown) != "" {
		t.Error("unknown category should map to empty path")
	}
}

// Metric indices of the aggregate's metric-indexed arrays.
var (
	idxTime   = aggregate.MetricIndex(measurement.MetricTime)
	idxVisits = aggregate.MetricIndex(measurement.MetricVisits)
)

// buildAggregates fabricates aggregates at several configurations with a
// known per-step cost structure.
func buildAggregates(points []float64) []*aggregate.ConfigAggregate {
	var out []*aggregate.ConfigAggregate
	for _, x := range points {
		k1 := &aggregate.KernelAggregate{Callpath: "App->train->k1", Name: "k1", Kind: calltree.KindCUDA}
		k1.PerRep[idxTime] = []aggregate.StepValue{{Train: 0.1}, {Train: 0.11}}
		k1.PerRep[idxVisits] = []aggregate.StepValue{{Train: 2}, {Train: 2}}
		k1.Value[idxTime] = aggregate.StepValue{Train: 0.105}
		k1.Value[idxVisits] = aggregate.StepValue{Train: 2}
		mpi := &aggregate.KernelAggregate{Callpath: "App->train->MPI_Allreduce", Name: "MPI_Allreduce", Kind: calltree.KindMPI}
		mpi.PerRep[idxTime] = []aggregate.StepValue{{Train: 0.01 * x}, {Train: 0.011 * x}}
		mpi.PerRep[idxVisits] = []aggregate.StepValue{{Train: 1}, {Train: 1}}
		mpi.Value[idxTime] = aggregate.StepValue{Train: 0.0105 * x}
		mpi.Value[idxVisits] = aggregate.StepValue{Train: 1}
		agg := &aggregate.ConfigAggregate{
			App:     "toy",
			Params:  []string{"p"},
			Point:   measurement.Point{x},
			Kernels: map[string]*aggregate.KernelAggregate{k1.Callpath: k1, mpi.Callpath: mpi},
			Reps:    2,
		}
		comp, comm := calltree.CategoryComputation, calltree.CategoryCommunication
		agg.Categories[comp][idxTime] = aggregate.StepValue{Train: 0.105}
		agg.Categories[comm][idxTime] = aggregate.StepValue{Train: 0.0105 * x}
		agg.CategoriesPerRep[comp][idxTime] = []aggregate.StepValue{{Train: 0.1}, {Train: 0.11}}
		agg.CategoriesPerRep[comm][idxTime] = []aggregate.StepValue{{Train: 0.01 * x}, {Train: 0.011 * x}}
		out = append(out, agg)
	}
	return out
}

func weakSetup(point measurement.Point) Params {
	return Params{
		BatchSize:     256,
		TrainSamples:  50000 * point[0],
		ValSamples:    10000,
		DataParallel:  point[0],
		ModelParallel: 1,
	}
}

func TestBuildKernelExperiment(t *testing.T) {
	aggs := buildAggregates([]float64{2, 4, 8, 16, 32})
	exp, err := BuildKernelExperiment(aggs, weakSetup)
	if err != nil {
		t.Fatal(err)
	}
	s := exp.Series(measurement.MetricTime, "App->train->k1")
	if s == nil {
		t.Fatal("k1 series missing")
	}
	if s.Len() != 5 {
		t.Errorf("k1 series has %d points, want 5", s.Len())
	}
	// Per-epoch value: n_t = floor(50000·x/x/256) = 195 steps, train 0.1 →
	// first rep value 19.5.
	sample := s.At(measurement.Point{2})
	if sample == nil || len(sample.Reps) != 2 {
		t.Fatal("sample missing or wrong rep count")
	}
	if math.Abs(sample.Reps[0]-19.5) > 1e-9 {
		t.Errorf("rep 0 epoch value = %v, want 19.5", sample.Reps[0])
	}
}

func TestBuildKernelExperimentVisits(t *testing.T) {
	aggs := buildAggregates([]float64{2, 4, 8, 16, 32})
	exp, err := BuildKernelExperiment(aggs, weakSetup)
	if err != nil {
		t.Fatal(err)
	}
	s := exp.Series(measurement.MetricVisits, "App->train->k1")
	if s == nil {
		t.Fatal("visits series missing")
	}
	sample := s.At(measurement.Point{2})
	// 2 visits/step × 195 steps = 390 per epoch.
	if math.Abs(sample.Reps[0]-390) > 1e-9 {
		t.Errorf("visits per epoch = %v, want 390", sample.Reps[0])
	}
}

func TestBuildKernelExperimentEmpty(t *testing.T) {
	if _, err := BuildKernelExperiment(nil, weakSetup); err == nil {
		t.Error("empty aggregates accepted")
	}
}

func TestBuildKernelExperimentInvalidSetup(t *testing.T) {
	aggs := buildAggregates([]float64{2})
	bad := func(measurement.Point) Params { return Params{} }
	if _, err := BuildKernelExperiment(aggs, bad); err == nil {
		t.Error("invalid setup accepted")
	}
}

func TestBuildApplicationExperiment(t *testing.T) {
	aggs := buildAggregates([]float64{2, 4, 8, 16, 32})
	exp, err := BuildApplicationExperiment(aggs, weakSetup)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{AppPath, CompPath, CommPath} {
		if exp.Series(measurement.MetricTime, path) == nil {
			t.Errorf("series %q missing", path)
		}
	}
	// F_epoch = F_comp + F_comm per repetition.
	app := exp.Series(measurement.MetricTime, AppPath).At(measurement.Point{4})
	comp := exp.Series(measurement.MetricTime, CompPath).At(measurement.Point{4})
	comm := exp.Series(measurement.MetricTime, CommPath).At(measurement.Point{4})
	for i := range app.Reps {
		sum := comp.Reps[i] + comm.Reps[i]
		if math.Abs(app.Reps[i]-sum) > 1e-9 {
			t.Errorf("rep %d: F_epoch = %v, comp+comm = %v", i, app.Reps[i], sum)
		}
	}
}

func TestBuildApplicationExperimentCommGrowsWithScale(t *testing.T) {
	aggs := buildAggregates([]float64{2, 4, 8, 16, 32})
	exp, err := BuildApplicationExperiment(aggs, weakSetup)
	if err != nil {
		t.Fatal(err)
	}
	s := exp.Series(measurement.MetricTime, CommPath)
	s.Sort()
	med := s.Medians()
	for i := 1; i < len(med); i++ {
		if med[i] <= med[i-1] {
			t.Errorf("communication time not growing: %v", med)
		}
	}
}

func TestBuildApplicationExperimentEmpty(t *testing.T) {
	if _, err := BuildApplicationExperiment(nil, weakSetup); err == nil {
		t.Error("empty aggregates accepted")
	}
}
