package core

import (
	"context"
	"os"
	"reflect"
	"testing"

	"extradeep/internal/aggregate"
	"extradeep/internal/epoch"
	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/pipeline"
	"extradeep/internal/profile"
	"extradeep/internal/resilience"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// testCampaign returns a small CIFAR-10 campaign on DEEP; cheap enough for
// unit tests (≈0.1 s).
func testCampaign(t *testing.T) Campaign {
	t.Helper()
	b, err := engine.ByName("cifar10")
	if err != nil {
		t.Fatal(err)
	}
	return Campaign{
		Benchmark: b,
		Config: engine.RunConfig{
			System:      hardware.DEEP(),
			Strategy:    parallel.DataParallel{FusionBuckets: 4},
			WeakScaling: true,
			Seed:        7,
			SampleRanks: 4,
		},
		ModelingRanks: []int{2, 4, 6, 8, 10},
		EvalRanks:     []int{16, 32, 64},
		Reps:          5, // the paper's repetition count
	}
}

func TestRunCampaignEndToEnd(t *testing.T) {
	res, err := RunCampaign(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Models.App[epoch.AppPath]
	if m == nil {
		t.Fatal("no application model")
	}
	// Model accuracy at the modeling points: the paper reports 0.1–1.2%;
	// the simulated run-to-run noise (σ up to ≈8% of which a median of 5
	// repetitions keeps ≈4%) makes individual points scatter more, so
	// bound each point loosely and the median tightly.
	var errs []float64
	for _, ranks := range []int{2, 4, 6, 8, 10} {
		e, ok := res.PercentError(epoch.AppPath, ranks)
		if !ok {
			t.Fatalf("no error at %d ranks", ranks)
		}
		if e > 10 {
			t.Errorf("model error at %d ranks = %.2f%%, want <10%%", ranks, e)
		}
		errs = append(errs, e)
	}
	if med, _ := mathutil.Median(errs); med > 4 {
		t.Errorf("median model error = %.2f%%, want <4%%", med)
	}
	// Predictive power: error at 64 ranks should stay under ~30% (the
	// paper's worst case is 28.8%).
	if e, ok := res.PercentError(epoch.AppPath, 64); !ok || e > 30 {
		t.Errorf("prediction error at 64 ranks = %.2f%% (ok=%v)", e, ok)
	}
}

func TestRunCampaignWeakScalingGrowth(t *testing.T) {
	res, err := RunCampaign(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	// Under weak scaling the measured training time per epoch grows with
	// the rank count (the case study's central observation).
	small, _ := res.ActualMedian(epoch.AppPath, 2)
	large, _ := res.ActualMedian(epoch.AppPath, 64)
	if large <= small {
		t.Errorf("epoch time should grow: %v at 2 ranks vs %v at 64", small, large)
	}
	// And communication is the growing part.
	c2, _ := res.ActualMedian(epoch.CommPath, 2)
	c64, _ := res.ActualMedian(epoch.CommPath, 64)
	if c64 <= 2*c2 {
		t.Errorf("communication should grow strongly: %v → %v", c2, c64)
	}
}

func TestRunCampaignProducesKernelModels(t *testing.T) {
	res, err := RunCampaign(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Models.KernelCount() < 20 {
		t.Errorf("kernel models = %d, want ≥20", res.Models.KernelCount())
	}
	// Time and visits metrics must both be modeled.
	if len(res.Models.Kernel[measurement.MetricTime]) == 0 {
		t.Error("no time models")
	}
	if len(res.Models.Kernel[measurement.MetricVisits]) == 0 {
		t.Error("no visits models")
	}
	if len(res.Models.Kernel[measurement.MetricBytes]) == 0 {
		t.Error("no bytes models for memory operations")
	}
}

func TestRunCampaignAllAppSeriesModeled(t *testing.T) {
	res, err := RunCampaign(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{epoch.AppPath, epoch.CompPath, epoch.CommPath, epoch.MemPath} {
		if res.Models.App[path] == nil {
			t.Errorf("missing application model %q", path)
		}
	}
}

func TestCampaignValidate(t *testing.T) {
	c := testCampaign(t)
	c.ModelingRanks = []int{2, 4}
	if c.Validate() == nil {
		t.Error("too few modeling ranks accepted")
	}
	c = testCampaign(t)
	c.Reps = 0
	if c.Validate() == nil {
		t.Error("zero repetitions accepted")
	}
}

func TestPercentErrorMissingSeries(t *testing.T) {
	res := &CampaignResult{
		Models:     &ModelSet{App: map[string]*modeling.Model{}},
		AppActuals: map[string]map[int][]float64{},
	}
	if _, ok := res.PercentError("App", 4); ok {
		t.Error("missing model reported ok")
	}
}

func TestActualMedianMissing(t *testing.T) {
	res := &CampaignResult{AppActuals: map[string]map[int][]float64{
		"App": {4: {1, 2, 3}},
	}}
	if v, ok := res.ActualMedian("App", 4); !ok || !mathutil.Close(v, 2) {
		t.Errorf("median = %v ok=%v", v, ok)
	}
	if _, ok := res.ActualMedian("App", 8); ok {
		t.Error("missing ranks reported ok")
	}
	if _, ok := res.ActualMedian("nope", 4); ok {
		t.Error("missing callpath reported ok")
	}
}

func TestActualMedianEvenReps(t *testing.T) {
	res := &CampaignResult{AppActuals: map[string]map[int][]float64{
		"App": {4: {1, 3}},
	}}
	if v, _ := res.ActualMedian("App", 4); !mathutil.Close(v, 2) {
		t.Errorf("even median = %v, want 2", v)
	}
}

// TestAggregateProfilesEmpty: the pipeline a campaign resolves, weak or
// strong, refuses to aggregate an empty profile set.
func TestAggregateProfilesEmpty(t *testing.T) {
	for _, strong := range []bool{false, true} {
		pl := pipeline.New(campaignConfig(pipeline.Config{}, strong))
		if _, err := pl.Aggregate(context.Background(), nil); err == nil {
			t.Errorf("strong=%v: empty profiles accepted", strong)
		}
	}
}

// TestRunCampaignKeepsCallerAggregation: a campaign that leaves Modeling
// unset still aggregates with the caller's Aggregation options — here
// means instead of the default medians.
func TestRunCampaignKeepsCallerAggregation(t *testing.T) {
	c := testCampaign(t)
	c.EvalRanks = nil
	mean := aggregate.Options{SkipWarmupEpochs: 1, UseMean: true}
	c.Options = pipeline.Config{Aggregation: mean}
	res, err := RunCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aggregates) != len(c.ModelingRanks) {
		t.Fatalf("aggregates = %d, want %d", len(res.Aggregates), len(c.ModelingRanks))
	}
	for i, ranks := range c.ModelingRanks {
		cfg := c.Config
		cfg.Ranks = ranks
		var group []*profile.Profile
		for rep := 1; rep <= c.Reps; rep++ {
			ps, err := engine.Profile(c.Benchmark, cfg, rep, true)
			if err != nil {
				t.Fatal(err)
			}
			group = append(group, ps...)
		}
		want, err := aggregate.Aggregate(group, mean)
		if err != nil {
			t.Fatal(err)
		}
		median, err := aggregate.Aggregate(group, aggregate.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(want, median) {
			t.Fatalf("fixture: mean and median aggregation agree at %d ranks", ranks)
		}
		if !reflect.DeepEqual(res.Aggregates[i], want) {
			t.Errorf("aggregate at %d ranks is not the mean aggregation", ranks)
		}
	}
}

func TestBuildModelsFiltersRareKernels(t *testing.T) {
	res, err := RunCampaign(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	// Every surviving kernel series must span at least 5 configurations.
	for _, byPath := range res.Models.Kernel {
		for path, m := range byPath {
			if len(m.Points) < measurement.MinModelingPoints {
				t.Errorf("kernel %s modeled from %d points", path, len(m.Points))
			}
		}
	}
}

func TestRunCampaignDeterministic(t *testing.T) {
	r1, err := RunCampaign(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCampaign(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	f1 := r1.Models.App[epoch.AppPath].Function.String()
	f2 := r2.Models.App[epoch.AppPath].Function.String()
	if f1 != f2 {
		t.Errorf("non-deterministic campaign: %s vs %s", f1, f2)
	}
}

// TestRunCampaignResilienceQuarantine drives the facade's resilience
// wiring: a degraded-class fault injected at one fit task must quarantine
// that kernel and mark the model set partial, not fail the campaign.
func TestRunCampaignResilienceQuarantine(t *testing.T) {
	c := testCampaign(t)
	c.Options.Injector = resilience.NewInjector(nil,
		resilience.Fault{Point: "fit:task:0", Kind: resilience.KindError, Class: resilience.ClassDegraded})
	res, err := RunCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Models.Degraded() {
		t.Fatal("injected degraded fit fault did not mark the model set partial")
	}
	found := false
	for _, f := range res.Models.Skipped {
		if f.Class == pipeline.FailureDegraded {
			found = true
		}
	}
	if !found {
		t.Fatalf("no degraded-class entry in Skipped: %+v", res.Models.Skipped)
	}
}

// TestRunCampaignCheckpointResume pins the facade's checkpoint/resume
// path: a campaign checkpointed through Options.Checkpoint and resumed
// over identical inputs reproduces the same application model.
func TestRunCampaignCheckpointResume(t *testing.T) {
	store := &resilience.Store{Dir: t.TempDir()}
	c := testCampaign(t)
	c.Options.Checkpoint = store
	cold, err := RunCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(store.Dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("checkpoint store empty after campaign (err=%v)", err)
	}
	c.Options.Resume = true
	resumed, err := RunCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	want := cold.Models.App[epoch.AppPath].Function.String()
	got := resumed.Models.App[epoch.AppPath].Function.String()
	if want != got {
		t.Fatalf("resumed app model %q differs from cold run %q", got, want)
	}
}
