package diagnose

import (
	"math"
	"sort"
	"strings"
	"testing"

	"extradeep/internal/mathutil"
	"extradeep/internal/profile"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
	"extradeep/internal/trace"
)

// healthyProfiles produces a clean 5-configuration campaign.
func healthyProfiles(t *testing.T) []*profile.Profile {
	t.Helper()
	b, err := engine.ByName("imdb")
	if err != nil {
		t.Fatal(err)
	}
	var out []*profile.Profile
	for _, ranks := range []int{2, 4, 6, 8, 10} {
		cfg := engine.RunConfig{
			System: hardware.DEEP(), Strategy: parallel.DataParallel{FusionBuckets: 4},
			Ranks: ranks, WeakScaling: true, Seed: 9, SampleRanks: 2,
		}
		for rep := 1; rep <= 3; rep++ {
			ps, err := engine.Profile(b, cfg, rep, true)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ps...)
		}
	}
	return out
}

func TestCheckHealthyCampaign(t *testing.T) {
	rep := Check(healthyProfiles(t))
	if !rep.OK() {
		t.Fatalf("healthy campaign reported errors: %+v", rep.Errors())
	}
	if rep.Configurations != 5 {
		t.Errorf("configurations = %d, want 5", rep.Configurations)
	}
	if !strings.Contains(rep.Render(), "modeling can proceed") {
		t.Error("render missing proceed line")
	}
}

func TestCheckEmpty(t *testing.T) {
	rep := Check(nil)
	if rep.OK() {
		t.Error("empty set reported OK")
	}
}

func TestCheckTooFewConfigurations(t *testing.T) {
	ps := healthyProfiles(t)
	// Keep only the 2- and 4-rank configurations.
	var subset []*profile.Profile
	for _, p := range ps {
		if p.Config[0] <= 4 {
			subset = append(subset, p)
		}
	}
	rep := Check(subset)
	if rep.OK() {
		t.Error("2-configuration set reported OK")
	}
	found := false
	for _, f := range rep.Errors() {
		if strings.Contains(f.Message, "needs at least 5") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing min-configuration error: %+v", rep.Errors())
	}
}

func TestCheckMixedApplications(t *testing.T) {
	ps := healthyProfiles(t)
	ps[0].App = "other"
	rep := Check(ps)
	if rep.OK() {
		t.Error("mixed applications reported OK")
	}
}

func TestCheckMissingRank(t *testing.T) {
	ps := healthyProfiles(t)
	// Drop rank 0 of one repetition of one configuration.
	var subset []*profile.Profile
	for _, p := range ps {
		if mathutil.Close(p.Config[0], 4) && p.Rep == 2 && p.Rank == 0 {
			continue
		}
		subset = append(subset, p)
	}
	rep := Check(subset)
	found := false
	for _, f := range rep.Warnings() {
		if strings.Contains(f.Message, "missing rank 0") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing-rank warning absent: %+v", rep.Warnings())
	}
}

// TestCheckDeterministic pins the finding order of Check: per-repetition
// and per-kernel findings are emitted in sorted order, not Go's randomized
// map order, so the rendered diagnosis is byte-identical across runs.
func TestCheckDeterministic(t *testing.T) {
	ps := healthyProfiles(t)
	// Drop one rank from each of the three repetitions of one
	// configuration, so several repetition-keyed findings exist whose
	// relative order a map range would randomize.
	var subset []*profile.Profile
	for _, p := range ps {
		if mathutil.Close(p.Config[0], 4) && p.Rank == p.Rep-1 {
			continue
		}
		subset = append(subset, p)
	}
	want := Check(subset).Render()
	for i := 0; i < 5; i++ {
		if got := Check(subset).Render(); got != want {
			t.Fatalf("Check rendering differs between runs:\n--- first\n%s\n--- run %d\n%s", want, i+1, got)
		}
	}
	// The repetition findings must appear in ascending repetition order.
	var reps []string
	for _, f := range Check(subset).Warnings() {
		if strings.Contains(f.Message, "is missing rank") {
			reps = append(reps, f.Message[:strings.Index(f.Message, " is missing")])
		}
	}
	if len(reps) < 2 {
		t.Fatalf("expected several missing-rank warnings, got %v", reps)
	}
	if !sort.StringsAreSorted(reps) {
		t.Errorf("missing-rank warnings not in repetition order: %v", reps)
	}
}

func TestCheckSingleRepetitionWarns(t *testing.T) {
	ps := healthyProfiles(t)
	var subset []*profile.Profile
	for _, p := range ps {
		if p.Rep == 1 {
			subset = append(subset, p)
		}
	}
	rep := Check(subset)
	found := false
	for _, f := range rep.Warnings() {
		if strings.Contains(f.Message, "single repetition") {
			found = true
		}
	}
	if !found {
		t.Error("single-repetition warning absent")
	}
}

func TestCheckNoEpochMarks(t *testing.T) {
	ps := healthyProfiles(t)
	ps[0].Trace.Epochs = nil
	ps[0].Trace.Steps = nil
	rep := Check(ps)
	if rep.OK() {
		t.Error("missing instrumentation reported OK")
	}
	found := false
	for _, f := range rep.Errors() {
		if strings.Contains(f.Message, "no epoch marks") {
			found = true
		}
	}
	if !found {
		t.Errorf("epoch-mark error absent: %+v", rep.Errors())
	}
}

func TestCheckSingleEpochWarns(t *testing.T) {
	ps := healthyProfiles(t)
	// Rebuild one profile with a single epoch.
	b, _ := engine.ByName("imdb")
	cfg := engine.RunConfig{
		System: hardware.DEEP(), Strategy: parallel.DataParallel{FusionBuckets: 4},
		Ranks: 2, WeakScaling: true, Seed: 9, SampleRanks: 1, ProfileEpochs: 1,
	}
	single, err := engine.Profile(b, cfg, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	ps = append(ps, single...)
	rep := Check(ps)
	found := false
	for _, f := range rep.Warnings() {
		if strings.Contains(f.Message, "single epoch") {
			found = true
		}
	}
	if !found {
		t.Error("single-epoch warning absent")
	}
}

func TestCheckDuplicateProfileWarns(t *testing.T) {
	ps := healthyProfiles(t)
	ps = append(ps, ps[0])
	rep := Check(ps)
	found := false
	for _, f := range rep.Warnings() {
		if strings.Contains(f.Message, "duplicate profile") {
			found = true
		}
	}
	if !found {
		t.Error("duplicate warning absent")
	}
}

func TestCheckInconsistentStepCounts(t *testing.T) {
	ps := healthyProfiles(t)
	// Give one rank an extra fake step inside its last epoch.
	tr := &ps[0].Trace
	last := tr.Steps[len(tr.Steps)-1]
	extra := trace.StepSpan{
		Epoch: last.Epoch, Index: last.Index + 1, Phase: trace.PhaseTrain,
		Start: last.End + 1e-6, End: last.End + 2e-6,
	}
	// Extend the epoch span to contain it.
	for i := range tr.Epochs {
		if tr.Epochs[i].Index == last.Epoch && tr.Epochs[i].End < extra.End {
			tr.Epochs[i].End = extra.End + 1e-6
		}
	}
	tr.Steps = append(tr.Steps, extra)
	tr.Sort()
	rep := Check(ps)
	found := false
	for _, f := range rep.Warnings() {
		if strings.Contains(f.Message, "step counts differ") {
			found = true
		}
	}
	if !found {
		t.Errorf("step-count warning absent: %+v", rep.Warnings())
	}
}

func TestCheckCorruptEventMetrics(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*trace.Event)
	}{
		{"nan-duration", func(e *trace.Event) { e.Duration = math.NaN() }},
		{"inf-start", func(e *trace.Event) { e.Start = math.Inf(1) }},
		{"nan-bytes", func(e *trace.Event) { e.Bytes = math.NaN() }},
		{"negative-duration", func(e *trace.Event) { e.Duration = -0.25 }},
		{"negative-bytes", func(e *trace.Event) { e.Bytes = -4096 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ps := healthyProfiles(t)
			c.mutate(&ps[0].Trace.Events[0])
			rep := Check(ps)
			if rep.OK() {
				t.Fatal("semantically corrupt profile reported OK")
			}
			found := false
			for _, f := range rep.Errors() {
				if strings.Contains(f.Message, "corrupt metric values") {
					found = true
				}
			}
			if !found {
				t.Errorf("corrupt-metric error absent: %+v", rep.Errors())
			}
		})
	}
}

func TestCheckCorruptMetricsCountsEvents(t *testing.T) {
	ps := healthyProfiles(t)
	ps[0].Trace.Events[0].Duration = math.NaN()
	ps[0].Trace.Events[1].Bytes = math.Inf(-1)
	rep := Check(ps)
	found := false
	for _, f := range rep.Errors() {
		if strings.Contains(f.Message, "2 event(s) with corrupt metric values") {
			found = true
		}
	}
	if !found {
		t.Errorf("corrupt-metric count wrong: %+v", rep.Errors())
	}
}

func TestSeverityString(t *testing.T) {
	if Info.String() != "info" || Warning.String() != "warning" || Error.String() != "error" {
		t.Error("severity names wrong")
	}
	if Severity(9).String() != "unknown" {
		t.Error("unknown severity name wrong")
	}
}
