package analysis

import (
	"errors"
	"math"
	"testing"

	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/pmnf"
)

// linearRuntime returns T(x) = c + s·x.
func linearRuntime(c, s float64) *pmnf.Function {
	return &pmnf.Function{
		Constant: c,
		Terms:    []pmnf.Term{{Coefficient: s, Factors: []pmnf.Factor{{Param: 0, PolyExp: 1}}}},
	}
}

// strongScalingRuntime returns an Amdahl-like T(x) = serial + work/x,
// approximated in PMNF form with a x^-1 term is not available, so use
// measured-style points instead where needed. For closed-form tests we use
// T(x) = 100/x via a custom evaluation helper.
func caseStudyRuntime() *pmnf.Function {
	return &pmnf.Function{
		Constant: 158.58,
		Terms: []pmnf.Term{{
			Coefficient: 0.58,
			Factors:     []pmnf.Factor{{Param: 0, PolyExp: 2.0 / 3.0, LogExp: 2}},
		}},
	}
}

func TestSpeedupsBaselineZero(t *testing.T) {
	xs := []float64{2, 4, 8}
	d, err := Speedups(linearRuntime(100, 0), xs)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 0 {
		t.Errorf("baseline speedup = %v, want 0", d[0])
	}
	// Constant runtime: no speedup anywhere.
	if d[1] != 0 || d[2] != 0 {
		t.Errorf("constant runtime speedups = %v", d)
	}
}

func TestSpeedupsWeakScalingSlowdown(t *testing.T) {
	// Runtime grows with scale (weak scaling with overhead): speedup
	// negative.
	xs := []float64{2, 4, 8}
	d, err := Speedups(linearRuntime(100, 5), xs)
	if err != nil {
		t.Fatal(err)
	}
	// T(2)=110, T(4)=120: Δ = (110−120)/1.1 = −9.09…%.
	if math.Abs(d[1]-(-100.0/11)) > 1e-9 {
		t.Errorf("Δ(4) = %v, want ≈-9.09", d[1])
	}
	if d[2] >= d[1] {
		t.Errorf("slowdown should worsen with scale: %v", d)
	}
}

func TestSpeedupsEmptySeries(t *testing.T) {
	if _, err := Speedups(linearRuntime(1, 1), nil); err == nil {
		t.Error("empty series accepted")
	}
}

func TestSpeedupsZeroBaseline(t *testing.T) {
	if _, err := Speedups(pmnf.ConstantFunction(0), []float64{2, 4}); err == nil {
		t.Error("zero baseline accepted")
	}
}

func TestSpeedupModelFits(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32, 64}
	m, err := SpeedupModel(caseStudyRuntime(), xs, modeling.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The model should reproduce the computed speedups closely.
	d, _ := Speedups(caseStudyRuntime(), xs)
	for i, x := range xs {
		if math.Abs(m.Predict(x)-d[i]) > math.Abs(d[i])*0.2+2 {
			t.Errorf("speedup model at %v = %v, want ≈%v", x, m.Predict(x), d[i])
		}
	}
}

func TestTheoreticalSpeedup(t *testing.T) {
	// Quadrupling resources: Δt = (8−2)/(2/100) = 300%.
	if got := TheoreticalSpeedup(2, 8); !mathutil.Close(got, 300) {
		t.Errorf("Δt = %v, want 300", got)
	}
	if got := TheoreticalSpeedup(2, 2); got != 0 {
		t.Errorf("Δt same point = %v, want 0", got)
	}
}

func TestEfficienciesBaselineIsOne(t *testing.T) {
	xs := []float64{2, 4, 8}
	e, err := Efficiencies(linearRuntime(100, 1), xs)
	if err != nil {
		t.Fatal(err)
	}
	if !mathutil.Close(e[0], 1) {
		t.Errorf("baseline efficiency = %v, want 1", e[0])
	}
}

func TestEfficienciesDegradeWithOverhead(t *testing.T) {
	xs := []float64{2, 4, 8, 16}
	e, err := Efficiencies(caseStudyRuntime(), xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(e); i++ {
		if e[i] >= e[i-1] {
			t.Errorf("efficiency should degrade: %v", e)
		}
	}
	// Weak scaling with growing runtime: negative "efficiency" relative to
	// the theoretical strong-scaling gain.
	if e[1] >= 0 {
		t.Errorf("weak-scaling slowdown should give negative ε, got %v", e[1])
	}
}

func TestCostModelMatchesPaperCaseStudy(t *testing.T) {
	// Paper: C_epoch at 32 ranks ≈ 22.49 core-hours with ϱ = 8 cores/rank
	// on DEEP; T_epoch(32) ≈ 304 s.
	cm := CostModel{Runtime: caseStudyRuntime(), CoresPerRank: 8}
	got := cm.CoreHours(32)
	if math.Abs(got-22.49) > 1.5 {
		t.Errorf("C(32) = %v core-hours, want ≈22.49", got)
	}
}

func TestCostModelPriceConversion(t *testing.T) {
	cm := CostModel{Runtime: pmnf.ConstantFunction(3600), CoresPerRank: 1, PricePerCoreHour: 0.05}
	// 3600 s × 2 ranks × 1 core = 2 core-hours → 0.10.
	if got := cm.CoreHours(2); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("priced cost = %v, want 0.10", got)
	}
}

func TestCostModelCustomFormula(t *testing.T) {
	cm := CostModel{
		Runtime: pmnf.ConstantFunction(100),
		Custom:  func(t, ranks float64) float64 { return t * ranks * 42 },
	}
	if got := cm.CoreHours(2); !mathutil.Close(got, 100*2*42) {
		t.Errorf("custom cost = %v", got)
	}
}

func TestCostSeriesMonotoneForGrowingRuntime(t *testing.T) {
	cm := CostModel{Runtime: caseStudyRuntime(), CoresPerRank: 8}
	xs := []float64{2, 4, 8, 16, 32, 64}
	costs := cm.CostSeries(xs)
	for i := 1; i < len(costs); i++ {
		if costs[i] <= costs[i-1] {
			t.Errorf("cost series not increasing: %v", costs)
		}
	}
}

func TestFitCostModelShape(t *testing.T) {
	cm := CostModel{Runtime: caseStudyRuntime(), CoresPerRank: 8}
	xs := []float64{2, 4, 6, 8, 10, 12, 16, 24, 32}
	m, err := cm.FitCostModel(xs, modeling.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports C ≈ 0.082·x^1.62: superlinear, subquadratic.
	g := m.Function.Growth()
	if g.PolyDegree < 1 || g.PolyDegree > 2.01 {
		t.Errorf("cost growth = %v, want between x and x²", g)
	}
	// And the fitted model should predict ≈22.5 core-hours at 32 ranks.
	if e := math.Abs(m.Predict(32)-cm.CoreHours(32)) / cm.CoreHours(32); e > 0.05 {
		t.Errorf("cost model at 32 = %v, want ≈%v", m.Predict(32), cm.CoreHours(32))
	}
}

func TestRankByGrowth(t *testing.T) {
	mk := func(fn *pmnf.Function) *modeling.Model {
		return &modeling.Model{Function: fn}
	}
	models := map[string]*modeling.Model{
		"flat":   mk(pmnf.ConstantFunction(1e6)),
		"linear": mk(linearRuntime(0, 1)),
		"nlogn": mk(&pmnf.Function{Terms: []pmnf.Term{{
			Coefficient: 0.001,
			Factors:     []pmnf.Factor{{Param: 0, PolyExp: 1, LogExp: 1}},
		}}}),
	}
	ranked := RankByGrowth(models, measurement.Point{2}, measurement.Point{64})
	want := []string{"nlogn", "linear", "flat"}
	for i, w := range want {
		if ranked[i].Callpath != w {
			t.Fatalf("rank %d = %s, want %s (full: %v)", i, ranked[i].Callpath, w, ranked)
		}
	}
}

func TestRankByGrowthTieBreak(t *testing.T) {
	mk := func(c float64) *modeling.Model {
		return &modeling.Model{Function: linearRuntime(0, c)}
	}
	models := map[string]*modeling.Model{
		"cheap":  mk(1),
		"costly": mk(100),
	}
	ranked := RankByGrowth(models, measurement.Point{2}, measurement.Point{10})
	if ranked[0].Callpath != "costly" {
		t.Errorf("tie break failed: %v", ranked[0].Callpath)
	}
}

func TestRankBySpeedup(t *testing.T) {
	mk := func(fn *pmnf.Function) *modeling.Model { return &modeling.Model{Function: fn} }
	models := map[string]*modeling.Model{
		// Runtime halves from 2 to 8 "ranks": speedup +50%.
		"improves": mk(&pmnf.Function{Constant: 12, Terms: []pmnf.Term{{Coefficient: -1, Factors: []pmnf.Factor{{Param: 0, PolyExp: 1}}}}}),
		// Constant runtime: speedup 0.
		"flat": mk(pmnf.ConstantFunction(5)),
		// Runtime grows: negative speedup.
		"worsens": mk(linearRuntime(1, 1)),
		// Degenerate: zero baseline — skipped.
		"degenerate": mk(pmnf.ConstantFunction(0)),
	}
	ranked := RankBySpeedup(models, measurement.Point{2}, measurement.Point{8})
	if len(ranked) != 3 {
		t.Fatalf("ranked %d kernels, want 3 (degenerate skipped)", len(ranked))
	}
	want := []string{"improves", "flat", "worsens"}
	for i, w := range want {
		if ranked[i].Callpath != w {
			t.Fatalf("rank %d = %s, want %s", i, ranked[i].Callpath, w)
		}
	}
	if ranked[0].SpeedupPct <= 0 {
		t.Errorf("improving kernel speedup = %v, want positive", ranked[0].SpeedupPct)
	}
	if ranked[2].SpeedupPct >= 0 {
		t.Errorf("worsening kernel speedup = %v, want negative", ranked[2].SpeedupPct)
	}
}

func TestEvaluateConstraints(t *testing.T) {
	// Strong-scaling-ish runtime via fitted model on 100/x data is
	// awkward in PMNF; instead use decreasing runtime through a negative
	// coefficient: T(x) = 100 − x (valid on the tested range).
	runtime := &pmnf.Function{
		Constant: 100,
		Terms:    []pmnf.Term{{Coefficient: -1, Factors: []pmnf.Factor{{Param: 0, PolyExp: 1}}}},
	}
	cm := CostModel{Runtime: runtime, CoresPerRank: 1}
	xs := []float64{16, 24, 32, 40, 48, 56, 64}
	fs, err := Evaluate(runtime, cm, xs, Constraint{MaxTime: 60, Budget: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		wantTime := f.Time <= 60
		if f.TimeOK != wantTime {
			t.Errorf("x=%v: TimeOK=%v, time=%v", f.Ranks, f.TimeOK, f.Time)
		}
		wantCost := f.Cost <= 0.9
		if f.CostOK != wantCost {
			t.Errorf("x=%v: CostOK=%v, cost=%v", f.Ranks, f.CostOK, f.Cost)
		}
	}
}

func TestMostCostEffectiveStrongScaling(t *testing.T) {
	runtime := &pmnf.Function{
		Constant: 100,
		Terms:    []pmnf.Term{{Coefficient: -1, Factors: []pmnf.Factor{{Param: 0, PolyExp: 1}}}},
	}
	cm := CostModel{Runtime: runtime, CoresPerRank: 1}
	xs := []float64{16, 24, 32, 40, 48, 56, 64}
	best, err := MostCostEffective(runtime, cm, xs, Constraint{MaxTime: 70, Budget: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !best.Feasible() {
		t.Error("selected configuration infeasible")
	}
	// Feasibility: time ≤ 70 requires x ≥ 30; cost at 64 is
	// (100−64)·64/3600 = 0.64 ≤ 1, so all large configs feasible; the
	// most efficient feasible one should be the smallest feasible x
	// (efficiency decreases with scale here).
	if !mathutil.Close(best.Ranks, 32) {
		t.Errorf("best = %v ranks, want 32", best.Ranks)
	}
}

func TestMostCostEffectiveWeakScalingPicksSmallest(t *testing.T) {
	// Weak scaling: runtime grows; smallest allocation is both cheapest
	// and most efficient (the paper's Q5 answer).
	cm := CostModel{Runtime: caseStudyRuntime(), CoresPerRank: 8}
	xs := []float64{2, 4, 8, 16, 32}
	best, err := MostCostEffective(caseStudyRuntime(), cm, xs, Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	if !mathutil.Close(best.Ranks, 2) {
		t.Errorf("best = %v ranks, want 2", best.Ranks)
	}
}

func TestMostCostEffectiveNoFeasible(t *testing.T) {
	cm := CostModel{Runtime: caseStudyRuntime(), CoresPerRank: 8}
	_, err := MostCostEffective(caseStudyRuntime(), cm, []float64{2, 4}, Constraint{MaxTime: 1})
	if !errors.Is(err, ErrNoFeasibleConfig) {
		t.Errorf("err = %v, want ErrNoFeasibleConfig", err)
	}
}

func TestMostCostEffectiveEmptyCandidates(t *testing.T) {
	cm := CostModel{Runtime: caseStudyRuntime(), CoresPerRank: 8}
	if _, err := MostCostEffective(caseStudyRuntime(), cm, nil, Constraint{}); err == nil {
		t.Error("empty candidate set accepted")
	}
}
