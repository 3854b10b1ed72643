package engine

import (
	"strings"
	"testing"

	"extradeep/internal/calltree"
	"extradeep/internal/mathutil"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
	"extradeep/internal/trace"
)

func TestJURECATracesUseAmpereKernels(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	cfg := testConfig(8)
	cfg.System = hardware.JURECA()
	profiles, err := Profile(b, cfg, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	sawAmpere := false
	for _, e := range profiles[0].Trace.Events {
		if strings.HasPrefix(e.Name, "ampere_") {
			sawAmpere = true
		}
		if strings.HasPrefix(e.Name, "volta_") {
			t.Errorf("Volta kernel %q on an A100 system", e.Name)
		}
	}
	if !sawAmpere {
		t.Error("no Ampere kernels on JURECA")
	}
}

func TestProfileParamsOverride(t *testing.T) {
	b := mustBenchmark(t, "imdb")
	cfg := testConfig(4)
	cfg.ProfileParams = []string{"p", "b"}
	cfg.ProfilePoint = []float64{4, 128}
	profiles, err := Profile(b, cfg, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	p := profiles[0]
	if len(p.Params) != 2 || p.Params[1] != "b" {
		t.Errorf("params = %v", p.Params)
	}
	if len(p.Config) != 2 || !mathutil.Close(p.Config[1], 128) {
		t.Errorf("config = %v", p.Config)
	}
}

func TestProfileParamsMismatchFallsBack(t *testing.T) {
	b := mustBenchmark(t, "imdb")
	cfg := testConfig(4)
	cfg.ProfileParams = []string{"p", "b"}
	cfg.ProfilePoint = []float64{4} // length mismatch → fallback
	profiles, err := Profile(b, cfg, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles[0].Params) != 1 || profiles[0].Params[0] != "p" {
		t.Errorf("fallback params = %v", profiles[0].Params)
	}
}

func TestAsyncStrategyProfiles(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	cfg := testConfig(16)
	cfg.Strategy = parallel.AsyncDataParallel{}
	profiles, err := Profile(b, cfg, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	sawPush, sawPull := false, false
	for _, e := range profiles[0].Trace.Events {
		switch e.Name {
		case "ps_push_gradients":
			sawPush = true
		case "ps_pull_weights":
			sawPull = true
		}
	}
	if !sawPush || !sawPull {
		t.Error("parameter-server kernels missing from ASP trace")
	}
}

func TestTensorParallelTraceHasActivationComm(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	cfg := testConfig(16)
	cfg.Strategy = parallel.TensorParallel{GroupSize: 4}
	profiles, err := Profile(b, cfg, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range profiles[0].Trace.Events {
		names[e.Name] = true
	}
	if !names["tensor_activation_allreduce"] {
		t.Errorf("tensor activation exchange missing: %v", names)
	}
	if !names["gradient_allreduce"] {
		t.Error("sharded gradient exchange missing")
	}
}

func TestSampledTraceSmallerThanFull(t *testing.T) {
	b := mustBenchmark(t, "imdb")
	cfg := testConfig(2)
	cfg.SampleRanks = 1
	sampled, err := Profile(b, cfg, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Profile(b, cfg, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled[0].Trace.Events)*5 > len(full[0].Trace.Events) {
		t.Errorf("sampled trace (%d events) should be far smaller than full (%d)",
			len(sampled[0].Trace.Events), len(full[0].Trace.Events))
	}
	if sampled[0].WallTime >= full[0].WallTime {
		t.Error("sampled wall time should undercut full profiling")
	}
}

func TestTraceStepsCoverAllEvents(t *testing.T) {
	// Every event either lies inside a step or is attributable to a
	// following step (no event may be lost by aggregation except trailing
	// async copies at the very end of the run).
	b := mustBenchmark(t, "cifar10")
	profiles, err := Profile(b, testConfig(4), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := profiles[0].Trace
	lost := 0
	for _, e := range tr.Events {
		if tr.StepOf(e.Start) == -1 && tr.FollowingStep(e.Start) == -1 {
			lost++
		}
	}
	// Only the final asynchronous copy after the last step may be lost.
	if lost > 1 {
		t.Errorf("%d events unattributable to any step", lost)
	}
}

func TestValidationStepsHaveNoGradientExchange(t *testing.T) {
	b := mustBenchmark(t, "cifar10")
	profiles, err := Profile(b, testConfig(4), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := profiles[0].Trace
	for _, e := range tr.Events {
		idx := tr.StepOf(e.Start)
		if idx == -1 {
			continue
		}
		if tr.Steps[idx].Phase == trace.PhaseValidation && e.Name == "Memset" {
			t.Error("gradient-buffer memset during validation")
		}
	}
}

func TestComplexityFactorOrdering(t *testing.T) {
	// The paper's ordering: ImageNet hardest, IMDB easiest.
	factors := map[string]float64{}
	for _, name := range []string{"cifar10", "imagenet", "imdb", "speechcommands"} {
		b := mustBenchmark(t, name)
		factors[name] = complexityFactor(b)
	}
	if !(factors["imdb"] < factors["speechcommands"] &&
		factors["speechcommands"] < factors["cifar10"] &&
		factors["cifar10"] < factors["imagenet"]) {
		t.Errorf("complexity ordering wrong: %v", factors)
	}
}

func TestCommNoiseSharedAcrossRanks(t *testing.T) {
	// A collective finishes together: within one step, every rank's
	// MPI_Allreduce event must have the identical duration.
	b := mustBenchmark(t, "cifar10")
	cfg := testConfig(4)
	cfg.SampleRanks = 3
	profiles, err := Profile(b, cfg, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	perStep := func(p int) []float64 {
		var out []float64
		for _, e := range profiles[p].Trace.Events {
			if e.Kind == calltree.KindMPI && e.Name == "MPI_Allreduce" {
				out = append(out, e.Duration)
			}
		}
		return out
	}
	a, b2, c := perStep(0), perStep(1), perStep(2)
	if len(a) == 0 || len(a) != len(b2) || len(a) != len(c) {
		t.Fatalf("allreduce counts differ: %d/%d/%d", len(a), len(b2), len(c))
	}
	for i := range a {
		if a[i] != b2[i] || a[i] != c[i] {
			t.Fatalf("collective durations diverge across ranks at step %d", i)
		}
	}
}
