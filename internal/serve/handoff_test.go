package serve_test

// The decode-handoff suite: an upload's decoded profiles are reused by
// the campaign it triggers only while the spooled files still hold the
// admitted bytes. The spool stays the durable truth — a file changed on
// disk, and every file after a restart, is decoded from the spool — and
// every path converges to the batch pipeline's bytes.

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"extradeep/internal/faults"
	"extradeep/internal/pipeline"
	"extradeep/internal/resilience"
	"extradeep/internal/serve"
)

// stageCounters returns the counters of the last stage of that name the
// collector saw.
func stageCounters(tb testing.TB, c *pipeline.Collector, stage pipeline.Stage) pipeline.Counters {
	tb.Helper()
	var out pipeline.Counters
	for _, st := range c.Stats() {
		if st.Stage == stage {
			out = st.Counters
		}
	}
	if out == nil {
		tb.Fatalf("no %s stage observed", stage)
	}
	return out
}

// gatedClock is a FakeClock whose Sleep — the fit loop's coalescing
// window — blocks until the test closes gate, so the test can act
// between an upload's commit and the campaign it triggers.
type gatedClock struct {
	*resilience.FakeClock
	gate chan struct{}
}

func (c gatedClock) Sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-c.gate:
	case <-ctx.Done():
	}
	return c.FakeClock.Sleep(ctx, d)
}

// TestServeHandoffReusesUploadDecode: the campaign after a fresh upload
// decodes nothing — every spooled profile is the one upload validation
// decoded — and its models equal the batch pipeline's over the spool.
func TestServeHandoffReusesUploadDecode(t *testing.T) {
	files := makeCampaign(t, defaultRanks, 2, 41)
	obs := &pipeline.Collector{}
	s := startServer(t, serve.Config{Config: pipeline.Config{Observer: obs}})
	s.mustUpload(t, testApp, contentsOf(files))
	s.settle(t, testApp)

	c := stageCounters(t, obs, pipeline.StageIngest)
	if c["loaded"] != len(files) || c["reused"] != c["loaded"] {
		t.Errorf("ingest counters %v, want loaded=reused=%d", c, len(files))
	}
	if !bytes.Equal(s.models(t, testApp), batchModels(t, filepath.Join(s.spool, testApp), 1)) {
		t.Error("models after a handed-off campaign differ from the batch pipeline")
	}
}

// TestServeHandoffFileChangedOnDisk: a spooled file overwritten between
// the upload's commit and the campaign is decoded from disk, not taken
// from the handoff, so the models follow the spool.
func TestServeHandoffFileChangedOnDisk(t *testing.T) {
	files := makeCampaign(t, defaultRanks, 1, 43)
	// Same canonical names, different measurements.
	other := makeCampaign(t, defaultRanks, 1, 44)
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	victim := names[2]
	if other[victim] == "" || other[victim] == files[victim] {
		t.Fatalf("fixture: no distinct replacement for %s", victim)
	}

	clock := gatedClock{FakeClock: resilience.NewFakeClock(), gate: make(chan struct{})}
	obs := &pipeline.Collector{}
	s := startServer(t, serve.Config{Config: pipeline.Config{Clock: clock, Observer: obs}, CoalesceWindow: time.Minute})
	s.mustUpload(t, testApp, contentsOf(files))
	if err := os.WriteFile(filepath.Join(s.spool, testApp, victim), []byte(other[victim]), 0o644); err != nil {
		t.Fatal(err)
	}
	close(clock.gate)
	s.settle(t, testApp)

	c := stageCounters(t, obs, pipeline.StageIngest)
	if c["loaded"] != len(files) || c["reused"] != len(files)-1 {
		t.Errorf("ingest counters %v, want loaded=%d reused=%d", c, len(files), len(files)-1)
	}
	got := s.models(t, testApp)
	if !bytes.Equal(got, batchModels(t, filepath.Join(s.spool, testApp), 1)) {
		t.Error("models differ from the batch pipeline over the on-disk spool")
	}
	if bytes.Equal(got, batchModels(t, writeProfilesDir(t, files), 1)) {
		t.Error("models match the uploaded bytes: the overwritten file did not reach the fit")
	}
}

// TestServeHandoffFileDamagedOnDisk: a spooled file damaged after
// admission is quarantined by the campaign, exactly as a batch run over
// the spool quarantines it.
func TestServeHandoffFileDamagedOnDisk(t *testing.T) {
	files := makeCampaign(t, defaultRanks, 2, 47)
	clock := gatedClock{FakeClock: resilience.NewFakeClock(), gate: make(chan struct{})}
	obs := &pipeline.Collector{}
	s := startServer(t, serve.Config{Config: pipeline.Config{Clock: clock, Observer: obs}, CoalesceWindow: time.Minute})
	s.mustUpload(t, testApp, contentsOf(files))
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	if _, err := faults.CorruptFile(filepath.Join(s.spool, testApp, names[0]), faults.Truncate); err != nil {
		t.Fatal(err)
	}
	close(clock.gate)
	snap := s.settle(t, testApp)

	if snap.Quarantined != 1 || snap.Profiles != len(files)-1 {
		t.Errorf("snapshot: %d profiles, %d quarantined; want %d and 1", snap.Profiles, snap.Quarantined, len(files)-1)
	}
	c := stageCounters(t, obs, pipeline.StageIngest)
	if c["reused"] != len(files)-1 || c["quarantined"] != 1 {
		t.Errorf("ingest counters %v, want reused=%d quarantined=1", c, len(files)-1)
	}
	if !bytes.Equal(s.models(t, testApp), batchModels(t, filepath.Join(s.spool, testApp), 1)) {
		t.Error("models differ from the batch pipeline over the damaged spool")
	}
}

// TestServeHandoffEmptyAfterRestart: a restarted server has no handoff —
// its campaign decodes every file from the spool — and converges to the
// first server's bytes.
func TestServeHandoffEmptyAfterRestart(t *testing.T) {
	spool := t.TempDir()
	files := makeCampaign(t, defaultRanks, 1, 53)
	first := startServer(t, serve.Config{SpoolDir: spool})
	first.mustUpload(t, testApp, contentsOf(files))
	first.settle(t, testApp)
	want := first.models(t, testApp)
	first.stop()
	ctx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := first.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	obs := &pipeline.Collector{}
	second := startServer(t, serve.Config{Config: pipeline.Config{Observer: obs}, SpoolDir: spool})
	second.settle(t, testApp)
	c := stageCounters(t, obs, pipeline.StageIngest)
	if c["loaded"] != len(files) || c["reused"] != 0 {
		t.Errorf("ingest counters %v, want loaded=%d reused=0", c, len(files))
	}
	if !bytes.Equal(second.models(t, testApp), want) {
		t.Error("restarted server's models differ from the first server's")
	}
}

// TestServeUploadRefusalIndependentOfWorkers: upload validation decodes
// in parallel, but its verdict is assembled in document order, so the
// 422 (every damaged document, in index order) and the 400 (the first
// app mismatch, which outranks damaged documents) are byte-identical for
// every worker count.
func TestServeUploadRefusalIndependentOfWorkers(t *testing.T) {
	_, victim := victimProfile(t, 59)
	var docs []string
	for _, kind := range faults.Kinds() {
		if kind == faults.DuplicateRankRep {
			continue
		}
		bad, err := faults.Apply(kind, []byte(victim), "json")
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(bad), victim)
	}
	for _, tc := range []struct {
		app    string
		status int
	}{
		{testApp, http.StatusUnprocessableEntity},
		{"cifar10", http.StatusBadRequest},
	} {
		var want []byte
		for _, workers := range []int{1, 4} {
			s := startServer(t, serve.Config{Config: pipeline.Config{Workers: workers}})
			status, body := s.upload(t, tc.app, "json", docs)
			if status != tc.status {
				t.Fatalf("%s workers=%d: status %d, want %d; body %s", tc.app, workers, status, tc.status, body)
			}
			if want == nil {
				want = body
			} else if !bytes.Equal(body, want) {
				t.Errorf("%s workers=%d: refusal\n%s\ndiffers from workers=1:\n%s", tc.app, workers, body, want)
			}
		}
	}
}
