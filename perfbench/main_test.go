package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"extradeep/internal/core"
	"extradeep/internal/pipeline"
)

// fakeWorkload answers its op id; verify rejects every third op as a
// reference mismatch.
type fakeWorkload struct{ verified int }

func (w *fakeWorkload) setup(*env) error                 { return nil }
func (w *fakeWorkload) before(*opCtx) error              { return nil }
func (w *fakeWorkload) op(c *opCtx) (any, error)         { return c.id, nil }
func (w *fakeWorkload) release() error                   { return nil }
func (w *fakeWorkload) layers([]span) map[string]float64 { return nil }

func (w *fakeWorkload) verify(out any) error {
	w.verified++
	if out.(int)%3 == 0 {
		return errMismatch
	}
	return nil
}

func TestReferenceMismatchIsFailedOp(t *testing.T) {
	w := &fakeWorkload{}
	opID := 0
	ph := loop(io.Discard, w, 20*time.Millisecond, nil, &opID)
	if ph.attempted == 0 || w.verified != ph.attempted {
		t.Fatalf("%d ops attempted, %d verified", ph.attempted, w.verified)
	}
	if want := (ph.attempted + 2) / 3; ph.failed != want {
		t.Errorf("%d of %d ops failed, want %d", ph.failed, ph.attempted, want)
	}
	if len(ph.lat) != ph.attempted-ph.failed {
		t.Errorf("%d latencies kept for %d good ops", len(ph.lat), ph.attempted-ph.failed)
	}
	res := endToEndResult(io.Discard, ph, []float64{1})
	if res.Correct || res.Failed != ph.failed || res.Attempted != ph.attempted {
		t.Errorf("result = correct %v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// allocSink keeps the test's allocations alive past the compiler.
var allocSink []byte

// harnessAllocWorkload allocates 4 MB in verify and in release and
// nothing in its op.
type harnessAllocWorkload struct{ fakeWorkload }

func (w *harnessAllocWorkload) verify(any) error { allocSink = make([]byte, 4<<20); return nil }
func (w *harnessAllocWorkload) release() error   { allocSink = make([]byte, 4<<20); return nil }

func TestAllocCountsOnlyTheOp(t *testing.T) {
	opID := 0
	ph := loop(io.Discard, &harnessAllocWorkload{}, 20*time.Millisecond, nil, &opID)
	if ph.timed == 0 || ph.timed != ph.attempted {
		t.Fatalf("%d of %d ops timed", ph.timed, ph.attempted)
	}
	if perOp := float64(ph.alloc) / float64(ph.timed); perOp > 1<<20 {
		t.Errorf("%.0f bytes allocated per op; verify's and release's allocations leaked into the op's", perOp)
	}
}

func TestIngestRateUsesCorpusBytesOfEachOp(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 0, Name: "op", StartNs: 0, EndNs: 3e9, Counters: map[string]float64{"corpus_bytes": 2e6}},
		{ID: 2, Parent: 1, Op: 0, Name: "ingest", StartNs: 0, EndNs: 1e9},
		{ID: 3, Op: 1, Name: "op", StartNs: 3e9, EndNs: 6e9, Counters: map[string]float64{"corpus_bytes": 6e6}},
		{ID: 4, Parent: 3, Op: 1, Name: "ingest", StartNs: 3e9, EndNs: 5e9},
	}
	// 2 MB in 1 s and 6 MB in 2 s: the median of 2 and 3 MB/s.
	if got := ingestRate(spans); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("ingest rate %v MB/s, want 2.5", got)
	}
}

func TestGridVerifyRejectsChangedReport(t *testing.T) {
	models := &pipeline.ModelSet{}
	ref, err := core.EncodeModels(models)
	if err != nil {
		t.Fatal(err)
	}
	w := &batchGrid{}
	corpus := &gridCorpusRef{refModels: ref, refReport: "report"}
	if err := w.verify(gridOut{corpus: corpus, models: models, report: "report"}); err != nil {
		t.Errorf("equal output rejected: %v", err)
	}
	if err := w.verify(gridOut{corpus: corpus, models: models, report: "report'"}); !errors.Is(err, errMismatch) {
		t.Errorf("changed report: got %v, want a mismatch", err)
	}
	corpus.refModels = append([]byte(nil), ref...)
	corpus.refModels[0] = ' '
	if err := w.verify(gridOut{corpus: corpus, models: models, report: "report"}); !errors.Is(err, errMismatch) {
		t.Errorf("changed models: got %v, want a mismatch", err)
	}
}

// TestMetricsMatchBenchmarkSpec pins the runner's metric names and units
// to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []string, want []declared) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: runner prints %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		names := map[string]bool{}
		for _, n := range got {
			names[n] = true
		}
		for _, d := range want {
			if !names[d.Name] || metricUnits[d.Name] != d.Unit {
				t.Errorf("%s: %s [%s] declared, runner has unit %q", kind, d.Name, d.Unit, metricUnits[d.Name])
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer(), spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s declared but not implemented", w.Name)
		}
	}
}
