package trace

import (
	"math"
	"testing"

	"extradeep/internal/calltree"
	"extradeep/internal/mathutil"
)

// buildTestTrace returns a small valid trace with two epochs of two train
// steps each plus one validation step per epoch.
func buildTestTrace() *Trace {
	tr := &Trace{Rank: 0}
	time := 0.0
	for epoch := 0; epoch < 2; epoch++ {
		epochStart := time
		for step := 0; step < 2; step++ {
			start := time
			tr.Events = append(tr.Events,
				Event{Name: "EigenMetaKernel", Kind: calltree.KindCUDA, Start: start + 0.01, Duration: 0.05},
				Event{Name: "MPI_Allreduce", Kind: calltree.KindMPI, Start: start + 0.07, Duration: 0.02},
			)
			time += 0.1
			tr.Steps = append(tr.Steps, StepSpan{Epoch: epoch, Index: step, Phase: PhaseTrain, Start: start, End: time})
			// An asynchronous event right after the step ends.
			tr.Events = append(tr.Events,
				Event{Name: "Memcpy DtoH", Kind: calltree.KindMemcpy, Start: time + 0.001, Duration: 0.004, Bytes: 1024})
			time += 0.01
		}
		vStart := time
		tr.Events = append(tr.Events,
			Event{Name: "EigenMetaKernel", Kind: calltree.KindCUDA, Start: vStart + 0.01, Duration: 0.02})
		time += 0.05
		tr.Steps = append(tr.Steps, StepSpan{Epoch: epoch, Index: 2, Phase: PhaseValidation, Start: vStart, End: time})
		tr.Epochs = append(tr.Epochs, EpochSpan{Index: epoch, Start: epochStart, End: time})
		time += 0.02
	}
	tr.Sort()
	return tr
}

func TestPhaseString(t *testing.T) {
	if PhaseTrain.String() != "train" || PhaseValidation.String() != "validation" {
		t.Error("phase names wrong")
	}
}

func TestEventEndAndCategory(t *testing.T) {
	e := Event{Name: "ncclAllReduce", Kind: calltree.KindNCCL, Start: 1.5, Duration: 0.5}
	if !mathutil.Close(e.End(), 2.0) {
		t.Errorf("End = %v", e.End())
	}
	if e.Category() != calltree.CategoryCommunication {
		t.Errorf("Category = %v", e.Category())
	}
}

func TestStepSpanContains(t *testing.T) {
	s := StepSpan{Start: 1, End: 2}
	if !s.Contains(1) {
		t.Error("start should be contained")
	}
	if s.Contains(2) {
		t.Error("end should be exclusive")
	}
	if s.Contains(0.5) || s.Contains(3) {
		t.Error("outside times contained")
	}
	if !mathutil.Close(s.Duration(), 1) {
		t.Errorf("Duration = %v", s.Duration())
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := buildTestTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNegativeDuration(t *testing.T) {
	tr := buildTestTrace()
	tr.Events[0].Duration = -1
	if tr.Validate() == nil {
		t.Error("negative duration accepted")
	}
}

func TestValidateRejectsUnnamedEvent(t *testing.T) {
	tr := buildTestTrace()
	tr.Events[0].Name = ""
	if tr.Validate() == nil {
		t.Error("unnamed event accepted")
	}
}

func TestValidateRejectsOverlappingSteps(t *testing.T) {
	tr := &Trace{
		Steps: []StepSpan{
			{Epoch: 0, Index: 0, Start: 0, End: 1},
			{Epoch: 0, Index: 1, Start: 0.5, End: 1.5},
		},
		Epochs: []EpochSpan{{Index: 0, Start: 0, End: 2}},
	}
	if tr.Validate() == nil {
		t.Error("overlapping steps accepted")
	}
}

func TestValidateRejectsStepOutsideEpoch(t *testing.T) {
	tr := &Trace{
		Steps:  []StepSpan{{Epoch: 0, Index: 0, Start: 0, End: 5}},
		Epochs: []EpochSpan{{Index: 0, Start: 0, End: 2}},
	}
	if tr.Validate() == nil {
		t.Error("step escaping epoch accepted")
	}
}

func TestValidateRejectsMissingEpoch(t *testing.T) {
	tr := &Trace{Steps: []StepSpan{{Epoch: 7, Start: 0, End: 1}}}
	if tr.Validate() == nil {
		t.Error("step referencing missing epoch accepted")
	}
}

func TestValidateRejectsInvertedSpans(t *testing.T) {
	tr := &Trace{Epochs: []EpochSpan{{Index: 0, Start: 2, End: 1}}}
	if tr.Validate() == nil {
		t.Error("inverted epoch accepted")
	}
	tr2 := &Trace{
		Steps:  []StepSpan{{Epoch: 0, Start: 2, End: 1}},
		Epochs: []EpochSpan{{Index: 0, Start: 0, End: 3}},
	}
	if tr2.Validate() == nil {
		t.Error("inverted step accepted")
	}
}

// TestValidateEpochNesting pins the step-in-epoch checks' verdicts and
// error texts. When several epochs share an index the last one is the
// step's epoch: a step inside an earlier duplicate but outside the last
// escapes, and one inside only the last nests.
func TestValidateEpochNesting(t *testing.T) {
	step := func(epoch int, start, end float64) StepSpan {
		return StepSpan{Epoch: epoch, Index: 3, Start: start, End: end}
	}
	cases := []struct {
		name   string
		steps  []StepSpan
		epochs []EpochSpan
		want   string // "" accepts
	}{
		{"nested", []StepSpan{step(0, 1, 2)}, []EpochSpan{{Index: 0, Start: 0, End: 5}}, ""},
		{"on the bounds", []StepSpan{step(0, 0, 5)}, []EpochSpan{{Index: 0, Start: 0, End: 5}}, ""},
		{"no epochs", []StepSpan{step(0, 1, 2)}, nil, "trace: step 0/3 references missing epoch"},
		{"other index", []StepSpan{step(1, 1, 2)}, []EpochSpan{{Index: 0, Start: 0, End: 5}}, "trace: step 1/3 references missing epoch"},
		{"starts early", []StepSpan{step(0, 1, 2)}, []EpochSpan{{Index: 0, Start: 1.5, End: 5}}, "trace: step 0/3 escapes its epoch span"},
		{"ends late", []StepSpan{step(0, 1, 6)}, []EpochSpan{{Index: 0, Start: 0, End: 5}}, "trace: step 0/3 escapes its epoch span"},
		{"second of two epochs", []StepSpan{step(1, 6, 7)}, []EpochSpan{{Index: 0, Start: 0, End: 5}, {Index: 1, Start: 5, End: 10}}, ""},
		{"duplicate index, inside the last", []StepSpan{step(0, 6, 7)},
			[]EpochSpan{{Index: 0, Start: 0, End: 5}, {Index: 0, Start: 5, End: 10}}, ""},
		{"duplicate index, inside only the first", []StepSpan{step(0, 1, 2)},
			[]EpochSpan{{Index: 0, Start: 0, End: 5}, {Index: 0, Start: 5, End: 10}}, "trace: step 0/3 escapes its epoch span"},
		{"duplicate index, inside only the last of three", []StepSpan{step(2, 21, 22)},
			[]EpochSpan{{Index: 2, Start: 0, End: 5}, {Index: 1, Start: 5, End: 10}, {Index: 2, Start: 20, End: 30}}, ""},
		{"inverted epoch before nesting", []StepSpan{step(7, 1, 2)}, []EpochSpan{{Index: 0, Start: 2, End: 1}}, "trace: epoch 0 ends before it starts"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &Trace{Steps: c.steps, Epochs: c.epochs}
			err := tr.Validate()
			switch {
			case c.want == "" && err != nil:
				t.Errorf("Validate = %v, want nil", err)
			case c.want != "" && (err == nil || err.Error() != c.want):
				t.Errorf("Validate = %v, want %q", err, c.want)
			}
		})
	}
}

func TestValidateRejectsNonFiniteMetrics(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name   string
		mutate func(tr *Trace)
	}{
		{"NaN event start", func(tr *Trace) { tr.Events[0].Start = nan }},
		{"Inf event duration", func(tr *Trace) { tr.Events[0].Duration = inf }},
		{"NaN event bytes", func(tr *Trace) { tr.Events[0].Bytes = nan }},
		{"negative event bytes", func(tr *Trace) { tr.Events[0].Bytes = -4096 }},
		{"negative event count", func(tr *Trace) { tr.Events[0].Count = -1 }},
		{"NaN step start", func(tr *Trace) { tr.Steps[0].Start = nan }},
		{"Inf step end", func(tr *Trace) { tr.Steps[0].End = inf }},
		{"NaN epoch start", func(tr *Trace) { tr.Epochs[0].Start = nan }},
		{"-Inf epoch end", func(tr *Trace) { tr.Epochs[0].End = math.Inf(-1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := buildTestTrace()
			c.mutate(tr)
			if tr.Validate() == nil {
				t.Error("corrupt metric accepted")
			}
		})
	}
}

func TestStepOf(t *testing.T) {
	tr := buildTestTrace()
	// Inside the first step.
	if got := tr.StepOf(0.05); got != 0 {
		t.Errorf("StepOf(0.05) = %d, want 0", got)
	}
	// Between step 0 and step 1 (async region).
	if got := tr.StepOf(0.105); got != -1 {
		t.Errorf("StepOf(0.105) = %d, want -1", got)
	}
	// After everything.
	if got := tr.StepOf(1e9); got != -1 {
		t.Errorf("StepOf(+inf) = %d, want -1", got)
	}
}

func TestFollowingStep(t *testing.T) {
	tr := buildTestTrace()
	// In the async gap after step 0 the following step is step 1.
	idx := tr.FollowingStep(0.105)
	if idx == -1 || tr.Steps[idx].Index != 1 {
		t.Errorf("FollowingStep = %d", idx)
	}
	if got := tr.FollowingStep(1e9); got != -1 {
		t.Errorf("FollowingStep past end = %d, want -1", got)
	}
	if got := tr.FollowingStep(-1); got != 0 {
		t.Errorf("FollowingStep before start = %d, want 0", got)
	}
}

func TestStepsOfPhase(t *testing.T) {
	tr := buildTestTrace()
	train := tr.StepsOfPhase(PhaseTrain)
	if len(train) != 4 {
		t.Errorf("train steps = %d, want 4", len(train))
	}
	val := tr.StepsOfPhase(PhaseValidation)
	if len(val) != 2 {
		t.Errorf("validation steps = %d, want 2", len(val))
	}
}

func TestStepsOfPhaseSkipsWarmup(t *testing.T) {
	tr := buildTestTrace()
	// Skipping epoch 0 (warm-up) leaves only epoch 1 steps.
	train := tr.StepsOfPhase(PhaseTrain, 0)
	if len(train) != 2 {
		t.Fatalf("train steps after skip = %d, want 2", len(train))
	}
	for _, i := range train {
		if tr.Steps[i].Epoch != 1 {
			t.Errorf("step %d from wrong epoch %d", i, tr.Steps[i].Epoch)
		}
	}
}

func TestSortOrdersEverything(t *testing.T) {
	tr := &Trace{
		Events: []Event{{Name: "b", Start: 2}, {Name: "a", Start: 1}},
		Steps:  []StepSpan{{Index: 1, Start: 2, End: 3}, {Index: 0, Start: 0, End: 1}},
		Epochs: []EpochSpan{{Index: 1, Start: 5}, {Index: 0, Start: 0}},
	}
	tr.Sort()
	if tr.Events[0].Name != "a" || tr.Steps[0].Index != 0 || tr.Epochs[0].Index != 0 {
		t.Error("Sort did not order by start time")
	}
}

func TestTotalDuration(t *testing.T) {
	tr := buildTestTrace()
	d := tr.TotalDuration()
	if d <= 0 {
		t.Errorf("TotalDuration = %v", d)
	}
	empty := &Trace{}
	if empty.TotalDuration() != 0 {
		t.Error("empty trace should have zero duration")
	}
}
