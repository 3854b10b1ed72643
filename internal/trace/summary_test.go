package trace

import (
	"testing"

	"extradeep/internal/calltree"
)

// summaryTrace is one rank's trace over two epochs of two training steps
// and one validation step each (epochs listed out of order). Kernel
// "App->k" runs in every step, once as a memcpy; "bare" has no callpath
// and runs between two steps; one event lies after the last step.
func summaryTrace() *Trace {
	tr := &Trace{Rank: 1}
	t := 0.0
	for e := 0; e < 2; e++ {
		start := t
		for s, phase := range []Phase{PhaseTrain, PhaseTrain, PhaseValidation} {
			kind := calltree.KindCUDA
			bytes := 0.0
			if e == 1 && s == 1 {
				kind, bytes = calltree.KindMemcpy, 64
			}
			tr.Events = append(tr.Events, Event{Name: "k", Kind: kind, Callpath: "App->k", Start: t + 0.1,
				Duration: float64(1 + e*3 + s), Bytes: bytes, Count: 2})
			tr.Steps = append(tr.Steps, StepSpan{Epoch: e, Index: s, Phase: phase, Start: t, End: t + 1})
			t += 2
		}
		tr.Epochs = append(tr.Epochs, EpochSpan{Index: e, Start: start, End: t})
	}
	// Between the two training steps of epoch 1: counts toward the second.
	tr.Events = append(tr.Events, Event{Name: "bare", Kind: calltree.KindMPI, Start: 7.5, Duration: 0.5})
	// After the last step: outside the profiled window.
	tr.Events = append(tr.Events, Event{Name: "late", Kind: calltree.KindCUDA, Start: 100, Duration: 9})
	tr.Epochs[0], tr.Epochs[1] = tr.Epochs[1], tr.Epochs[0]
	return tr
}

// TestSummarize pins Fig. 2's per-profile reduction: per-step sums of
// each metric over the kept steps, separated by phase, reduced over the
// steps; the warm-up epoch skipped (by index, whatever the epochs'
// order); a between-step event counted toward the following step; an
// event after the last step dropped; and a kind switch that adds the
// bytes metric from the first memory event on.
func TestSummarize(t *testing.T) {
	tr := summaryTrace()
	var s Summarizer

	mean := SummaryOptions{SkipWarmupEpochs: 1, UseMean: true}
	sm := s.Summarize(tr, mean)
	if sm.Options != mean || sm.TrainSteps != 2 || len(sm.Kernels) != 2 {
		t.Fatalf("summary %+v, want 2 training steps and 2 kernels under %+v", sm, mean)
	}
	k := sm.Kernels[0]
	if k.Key != "App->k" || k.Name != "k" || k.Kind != calltree.KindCUDA {
		t.Errorf("kernel 0 = %q/%q/%v, want App->k/k/cuda (its last kept event)", k.Key, k.Name, k.Kind)
	}
	// Epoch 1's training steps take durations 4 and 5 (mean 4.5), its
	// validation step 6; the memcpy in the second step adds bytes 64 to
	// a row that reads 0 for the first step.
	want := [NumPhases][NumMetrics]float64{{4.5, 2, 32}, {6, 2, 0}}
	has := [NumPhases][NumMetrics]bool{{true, true, true}, {true, true, false}}
	if k.Value != want || k.Has != has {
		t.Errorf("kernel 0 values %v has %v, want %v and %v", k.Value, k.Has, want, has)
	}
	b := sm.Kernels[1]
	if b.Key != "bare" || b.Value[PhaseTrain][MetricTime] != 0.25 || b.Has[PhaseValidation][MetricTime] {
		t.Errorf("kernel 1 = %+v, want bare at 0.5 in one of two training steps (mean 0.25), no validation", b)
	}

	kept := *s.Summarize(tr, SummaryOptions{}).Clone()
	if kept.TrainSteps != 4 || len(kept.Kernels) != 2 || kept.Kernels[0].Value[PhaseTrain][MetricTime] != 3 {
		t.Errorf("without warm-up skipping: %+v, want 4 training steps and App->k's median 3", kept)
	}
	if got := s.Summarize(tr, SummaryOptions{SkipWarmupEpochs: 5}); got.TrainSteps != 2 {
		t.Errorf("skipping every epoch kept %d training steps, want the last epoch's 2", got.TrainSteps)
	}
	s.Reset()
	if kept.Kernels[0].Key != "App->k" {
		t.Error("Reset changed a cloned summary")
	}
}
