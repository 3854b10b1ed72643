package pipeline

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"extradeep/internal/aggregate"
	"extradeep/internal/calltree"
	"extradeep/internal/epoch"
	"extradeep/internal/ingest"
	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/profile"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
	"extradeep/internal/trace"
)

// writeCampaign simulates a 5-configuration × 2-repetition weak-scaling
// campaign into a fresh directory and returns it with the matching
// training-setup function.
func writeCampaign(t testing.TB) (string, epoch.SetupFunc) {
	t.Helper()
	b, err := engine.ByName("imdb")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store := &profile.Store{Dir: dir}
	strat := parallel.DataParallel{}
	for _, ranks := range []int{2, 4, 6, 8, 10} {
		cfg := engine.RunConfig{
			System: hardware.DEEP(), Strategy: strat,
			Ranks: ranks, WeakScaling: true, Seed: 7, SampleRanks: 1,
		}
		for rep := 1; rep <= 2; rep++ {
			ps, err := engine.Profile(b, cfg, rep, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ps {
				if err := store.Write(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return dir, engine.SetupFunc(b, strat, true)
}

func testSpec(dir string, setup epoch.SetupFunc) RunSpec {
	return RunSpec{
		ProfilesDir: dir,
		Format:      "json",
		Ingest:      ingest.Options{Policy: ingest.Lenient},
		Setup:       setup,
		Analyze:     AnalyzeOptions{Predict: 40, CoresPerRank: 1, TopKernels: 10},
	}
}

func TestRunProducesFullReport(t *testing.T) {
	dir, setup := writeCampaign(t)
	p := New(Config{Workers: 4})
	res, err := p.Run(context.Background(), testSpec(dir, setup))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ingest.Profiles) != 10 {
		t.Errorf("loaded %d profiles, want 10", len(res.Ingest.Profiles))
	}
	if len(res.Aggregates) != 5 {
		t.Errorf("aggregated %d configurations, want 5", len(res.Aggregates))
	}
	if res.Models.KernelCount() == 0 {
		t.Error("no kernel models fitted")
	}
	for _, want := range []string{
		"application models (training time per epoch):",
		"top 10 kernels by growth trend",
		"predicted training time per epoch @ 40 ranks:",
		"scalability and cost per measured configuration:",
		"most cost-effective configuration:",
	} {
		if !strings.Contains(res.Report, want) {
			t.Errorf("report lacks %q:\n%s", want, res.Report)
		}
	}
}

// TestObserverSeesStagesInOrder verifies the observer contract: every
// built-in stage fires exactly once, in pipeline order, with counters.
func TestObserverSeesStagesInOrder(t *testing.T) {
	dir, setup := writeCampaign(t)
	col := &Collector{}
	p := New(Config{Workers: 2, Observer: col})
	if _, err := p.Run(context.Background(), testSpec(dir, setup)); err != nil {
		t.Fatal(err)
	}
	var got []Stage
	for _, s := range col.Stats() {
		got = append(got, s.Stage)
		if s.Err != nil {
			t.Errorf("stage %s reported error %v", s.Stage, s.Err)
		}
	}
	want := []Stage{StageIngest, StageAggregate, StageEpoch, StageFit, StageAnalyze, StageReport}
	if len(got) != len(want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stages = %v, want %v", got, want)
		}
	}
	stats := col.Stats()
	if stats[0].Counters["loaded"] != 10 {
		t.Errorf("ingest counters = %v, want loaded=10", stats[0].Counters)
	}
	if stats[1].Counters["configurations"] != 5 {
		t.Errorf("aggregate counters = %v, want configurations=5", stats[1].Counters)
	}
	if stats[3].Counters["tasks"] == 0 || stats[3].Counters["fitted"] == 0 {
		t.Errorf("fit counters = %v, want non-zero tasks and fitted", stats[3].Counters)
	}
}

func TestLogObserverWritesStageLines(t *testing.T) {
	var buf bytes.Buffer
	obs := &LogObserver{W: &buf}
	err := Observe(obs, StageFit, func() (Counters, error) {
		return Counters{"tasks": 12, "fitted": 11}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	for _, want := range []string{"stage fit:", "tasks=12", "fitted=11"} {
		if !strings.Contains(line, want) {
			t.Errorf("log line lacks %q: %q", want, line)
		}
	}
}

func TestAggregateRejectsEmptyInput(t *testing.T) {
	p := New(Config{})
	if _, err := p.Aggregate(context.Background(), nil); err == nil {
		t.Error("empty profile set accepted")
	}
}

func TestAggregateSortedByPoint(t *testing.T) {
	b, err := engine.ByName("imdb")
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.RunConfig{
		System: hardware.DEEP(), Strategy: parallel.DataParallel{},
		WeakScaling: true, Seed: 3, SampleRanks: 2,
	}
	var all []*profile.Profile
	for _, ranks := range []int{8, 2, 4} {
		cfg.Ranks = ranks
		ps, err := engine.Profile(b, cfg, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ps...)
	}
	aggs, err := New(Config{}).Aggregate(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 3 {
		t.Fatalf("aggregates = %d, want 3", len(aggs))
	}
	for i := 1; i < len(aggs); i++ {
		if !aggs[i-1].Point.Less(aggs[i].Point) {
			t.Error("aggregates not sorted by point")
		}
	}
}

func TestIngestKeepsQuarantineSemantics(t *testing.T) {
	dir, _ := writeCampaign(t)
	p := New(Config{})
	rep, err := p.Ingest(context.Background(), dir, "json", ingest.Options{Policy: ingest.Lenient})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Profiles) != 10 || len(rep.Quarantined) != 0 {
		t.Errorf("loaded %d / quarantined %d, want 10/0", len(rep.Profiles), len(rep.Quarantined))
	}
	if err := rep.Gate(ingest.Options{Policy: ingest.Lenient}); err != nil {
		t.Errorf("gate refused a healthy campaign: %v", err)
	}
	// Unknown directory: the ingest error passes through untouched.
	if _, err := p.Ingest(context.Background(), dir+"/nope", "json", ingest.Options{}); err == nil {
		t.Error("missing directory accepted")
	}
}

// TestBuildModelsMatchesSequentialAtAnyWorkerCount is the in-package
// determinism check: the fitted model set must be identical (function
// strings, quality stats, callpath sets) for every worker count.
func TestBuildModelsMatchesSequentialAtAnyWorkerCount(t *testing.T) {
	dir, setup := writeCampaign(t)
	seq := New(Config{Workers: 1})
	ctx := context.Background()
	rep, err := seq.Ingest(ctx, dir, "json", ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := seq.Aggregate(ctx, rep.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.BuildModels(ctx, aggs, setup)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par := New(Config{Workers: workers})
		got, err := par.BuildModels(ctx, aggs, setup)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertSameModels(t, workers, want, got)
	}
}

func assertSameModels(t *testing.T, workers int, want, got *ModelSet) {
	t.Helper()
	if w, g := want.KernelCount(), got.KernelCount(); w != g {
		t.Fatalf("workers=%d: %d kernel models, want %d", workers, g, w)
	}
	for metric, byPath := range want.Kernel {
		for path, wm := range byPath {
			gm, ok := got.Kernel[metric][path]
			if !ok {
				t.Fatalf("workers=%d: missing model for %s/%s", workers, metric, path)
			}
			if wm.Function.String() != gm.Function.String() || wm.SMAPE != gm.SMAPE || wm.RSS != gm.RSS {
				t.Errorf("workers=%d: %s/%s model differs: %s vs %s", workers, metric, path, wm.Function, gm.Function)
			}
		}
	}
	for path, wm := range want.App {
		gm, ok := got.App[path]
		if !ok {
			t.Fatalf("workers=%d: missing app model %s", workers, path)
		}
		if wm.Function.String() != gm.Function.String() {
			t.Errorf("workers=%d: app %s model differs: %s vs %s", workers, path, wm.Function, gm.Function)
		}
	}
}

// TestBuildModelsUsesModelingOptions ensures the configured search space
// reaches the fit tasks (a reduced space must change the task outcome
// space, not silently fall back to defaults).
func TestBuildModelsUsesModelingOptions(t *testing.T) {
	dir, setup := writeCampaign(t)
	ctx := context.Background()
	p := New(Config{Workers: 2, Modeling: modeling.SmallOptions(), Aggregation: aggregate.DefaultOptions()})
	rep, err := p.Ingest(ctx, dir, "json", ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := p.Aggregate(ctx, rep.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := p.BuildModels(ctx, aggs, setup)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ms.App[epoch.AppPath]; !ok {
		t.Error("no application model under reduced search space")
	}
}

func TestAnalyzeRequiresAppModel(t *testing.T) {
	dir, setup := writeCampaign(t)
	ctx := context.Background()
	p := New(Config{Workers: 1})
	rep, err := p.Ingest(ctx, dir, "json", ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := p.Aggregate(ctx, rep.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := p.BuildModels(ctx, aggs, setup)
	if err != nil {
		t.Fatal(err)
	}
	delete(ms.App, epoch.AppPath)
	if _, err := p.Analyze(ctx, ms, aggs, AnalyzeOptions{CoresPerRank: 1}); err == nil {
		t.Error("analyze accepted a model set without an application runtime model")
	}
	var errStage error
	col := &Collector{}
	p2 := New(Config{Observer: col})
	if _, errStage = p2.Analyze(ctx, ms, aggs, AnalyzeOptions{CoresPerRank: 1}); errStage == nil {
		t.Fatal("expected analyze error")
	}
	if last := col.Last(); !errors.Is(last.Err, errStage) {
		t.Errorf("observer saw err %v, want %v", last.Err, errStage)
	}
}

// TestZeroAggregationUsesDefaults: New substitutes the paper's
// aggregation for a zero Config.Aggregation, so a zero Config reports
// exactly what the explicit defaults report. The traces have more than
// one epoch, so a skipped warm-up epoch changes the medians and the
// report would differ if the zero value reached the aggregation.
func TestZeroAggregationUsesDefaults(t *testing.T) {
	dir, setup := writeCampaign(t)
	zero, err := New(Config{Workers: 2}).Run(context.Background(), testSpec(dir, setup))
	if err != nil {
		t.Fatal(err)
	}
	full, err := ingest.LoadDir(dir, "json", ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(full.Profiles[0].Trace.Epochs); n < 2 {
		t.Fatalf("fixture traces have %d epochs, want more than one", n)
	}
	if sm := zero.Ingest.Profiles[0].Summary; sm == nil || sm.Options != aggregate.DefaultOptions() {
		t.Fatalf("zero Config ingested summary %+v, want one under aggregate.DefaultOptions()", sm)
	}
	explicit, err := New(Config{Workers: 2, Aggregation: aggregate.DefaultOptions()}).Run(context.Background(), testSpec(dir, setup))
	if err != nil {
		t.Fatal(err)
	}
	if zero.Report != explicit.Report {
		t.Error("zero Config.Aggregation reports differently from aggregate.DefaultOptions()")
	}
}

// kindSwitchProfiles returns two ranks at each of several configurations
// whose kernel "App->k" runs as a CUDA kernel in the first training step
// and as a memcpy in the later ones: a compute-to-memory kind switch
// within one phase, which profile validation accepts.
func kindSwitchProfiles(t *testing.T) []*profile.Profile {
	t.Helper()
	var out []*profile.Profile
	for _, ranks := range []float64{2, 4, 6, 8} {
		for rank := 0; rank < 2; rank++ {
			tr := trace.Trace{Rank: rank}
			for s, kind := range []calltree.Kind{calltree.KindCUDA, calltree.KindMemcpy, calltree.KindMemcpy} {
				start := float64(s)
				tr.Steps = append(tr.Steps, trace.StepSpan{Index: s, Phase: trace.PhaseTrain, Start: start, End: start + 0.5})
				tr.Events = append(tr.Events, trace.Event{
					Name: "k", Kind: kind, Callpath: "App->k", Start: start + 0.1,
					Duration: 0.01 * ranks * float64(s+1), Bytes: 100 * float64(s),
				})
			}
			tr.Epochs = []trace.EpochSpan{{Index: 0, Start: 0, End: 3}}
			p := &profile.Profile{App: "app", Params: []string{"p"}, Config: []float64{ranks}, Rank: rank, Rep: 1, WallTime: 3, Trace: tr}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
	}
	return out
}

// TestAggregateKindSwitchAtEveryWorkerCount: a kernel switching from a
// compute to a memory kind within one phase aggregates to the same
// result with one and with two workers.
func TestAggregateKindSwitchAtEveryWorkerCount(t *testing.T) {
	ps := kindSwitchProfiles(t)
	var want []*aggregate.ConfigAggregate
	for _, workers := range []int{1, 2} {
		aggs, err := New(Config{Workers: workers}).Aggregate(context.Background(), ps)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, agg := range aggs {
			if k := agg.Kernels["App->k"]; k == nil || k.Kind != calltree.KindMemcpy || k.PerRep[aggregate.MetricIndex(measurement.MetricBytes)] == nil {
				t.Fatalf("workers=%d %v: kernel %+v, want a memcpy with bytes", workers, agg.Point, k)
			}
		}
		if want == nil {
			want = aggs
		} else if !reflect.DeepEqual(aggs, want) {
			t.Errorf("workers=%d: aggregates differ from one worker's", workers)
		}
	}
}
