package modeling

import (
	"runtime"
	"sort"
	"sync"
	"testing"

	"extradeep/internal/aggregate"
	"extradeep/internal/epoch"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// campaignTask is one fit task of a campaign: its name and series.
type campaignTask struct {
	name   string
	series *measurement.Series
}

// gridCampaignTasks simulates a k×k (ranks × per-worker batch) cifar10
// grid campaign and derives its fit tasks as the batch pipeline does:
// aggregate each configuration, extrapolate per-epoch kernel and
// application series (Eqs. 2–4), drop kernels seen in fewer than five
// configurations, and fit every remaining (metric, callpath) series.
func gridCampaignTasks(t *testing.T, k int) []campaignTask {
	t.Helper()
	bench, err := engine.ByName("cifar10")
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.RunConfig{
		System:      hardware.DEEP(),
		Strategy:    parallel.DataParallel{},
		WeakScaling: true,
		Seed:        11,
		SampleRanks: 1,
	}
	var profiles []*profile.Profile
	for i := 1; i <= k; i++ {
		for j := 1; j <= k; j++ {
			cell := bench
			cell.BatchSize = 32 * j
			c := cfg
			c.Ranks = 2 * i
			c.ProfileParams = []string{"p", "b"}
			c.ProfilePoint = []float64{float64(2 * i), float64(32 * j)}
			ps, err := engine.Profile(cell, c, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			profiles = append(profiles, ps...)
		}
	}
	groups := profile.GroupByConfig(profiles)
	var aggs []*aggregate.ConfigAggregate
	for _, key := range profile.SortedKeys(groups) {
		agg, err := aggregate.Aggregate(groups[key], aggregate.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		aggs = append(aggs, agg)
	}
	sort.SliceStable(aggs, func(i, j int) bool { return aggs[i].Point.Less(aggs[j].Point) })
	setup := func(point measurement.Point) epoch.Params {
		cell := bench
		cell.BatchSize = int(point[1])
		return engine.EpochParams(cell, cfg.Strategy, int(point[0]), cfg.WeakScaling)
	}
	kernels, err := epoch.BuildKernelExperiment(aggs, setup)
	if err != nil {
		t.Fatal(err)
	}
	kernels.FilterInsufficient(measurement.MinModelingPoints)
	apps, err := epoch.BuildApplicationExperiment(aggs, setup)
	if err != nil {
		t.Fatal(err)
	}
	var tasks []campaignTask
	for _, m := range kernels.Metrics() {
		for _, path := range kernels.Callpaths(m) {
			tasks = append(tasks, campaignTask{name: string(m) + " " + path, series: kernels.Series(m, path)})
		}
	}
	for _, path := range apps.Callpaths(measurement.MetricTime) {
		tasks = append(tasks, campaignTask{name: "app " + path, series: apps.Series(measurement.MetricTime, path)})
	}
	return tasks
}

// seriesMatchesOracle fits the series on the engine and on the oracle
// and reports the first difference, errors included, then checks every
// PRESS decision of the task against its replay.
func seriesMatchesOracle(s *measurement.Series, opts Options) error {
	points, values, err := aggregateSeries(s, opts.UseMean)
	opts = normalizeOptions(opts)
	if err != nil || validateFitInputs(points, values, opts) != nil {
		return nil // both paths share the aggregation and the input validation
	}
	if err := checkEquivalence(points, values, opts); err != nil {
		return err
	}
	return checkPress(points, values, opts)
}

// TestEngineMatchesOracleGridCampaign fits every task of a simulated
// 9×9 grid campaign, with the strong-scaling search space the batch
// benchmark uses, on the engine and on the frozen oracle and demands
// bit-identical selection; every hypothesis the guard decides on the
// PRESS path must agree with its exact replay. The guard must also
// replay fewer than half of the hypotheses it scores: a bound that
// silently degraded into replaying everything would still pass the bit
// checks.
func TestEngineMatchesOracleGridCampaign(t *testing.T) {
	tasks := gridCampaignTasks(t, 9)
	if len(tasks) < 20 {
		t.Fatalf("campaign produced only %d fit tasks", len(tasks))
	}
	for _, task := range tasks {
		if pts := task.series.Points(); len(pts) != 81 || len(pts[0]) != 2 {
			t.Fatalf("%s: %d points of arity %d, want the 81 grid configurations", task.name, len(pts), len(pts[0]))
		}
	}
	opts := StrongScalingOptions()
	scored0, replayed0 := guardScored.Load(), guardReplayed.Load()
	// The oracle re-solves every fold from a fresh design matrix, so the
	// tasks are spread over the cores.
	errs := make([]error, len(tasks))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = seriesMatchesOracle(tasks[i].series, opts)
			}
		}()
	}
	for i := range tasks {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", tasks[i].name, err)
		}
	}
	scored, replayed := guardScored.Load()-scored0, guardReplayed.Load()-replayed0
	t.Logf("%d tasks: %d hypotheses scored, %d replayed exactly", len(tasks), scored, replayed)
	if scored == 0 || 2*replayed >= scored {
		t.Fatalf("guard replayed %d of %d scored hypotheses; want fewer than half", replayed, scored)
	}
}
