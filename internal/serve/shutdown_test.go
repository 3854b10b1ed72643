package serve_test

// Graceful-shutdown suite: a server cancelled mid-work drains cleanly,
// loses nothing, and a restarted server over the same spool and
// checkpoint directory converges to byte-identical models and
// predictions. This is the satellite pinning the crash-consistency
// story: the spool is the durable truth, campaigns are re-runnable, and
// checkpoint resume only makes the re-run cheaper.

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"

	"extradeep/internal/pipeline"
	"extradeep/internal/resilience"
	"extradeep/internal/serve"
)

// restartable builds a server over caller-owned spool/checkpoint dirs so
// a second instance can adopt the same state after the first dies.
func restartable(tb testing.TB, spool, ckpt string, coalesce time.Duration) (*testServer, context.CancelFunc) {
	tb.Helper()
	cfg := serve.Config{
		Config:         pipeline.Config{Checkpoint: &resilience.Store{Dir: ckpt}, Resume: true},
		SpoolDir:       spool,
		Setup:          testSetup(tb),
		CoalesceWindow: coalesce,
	}
	s := startServer(tb, cfg)
	// startServer wires its own lifecycle cancel into tb.Cleanup; for the
	// shutdown tests we need to kill the first instance mid-test, so give
	// the caller an explicit handle too.
	return s, s.stop
}

func TestServeShutdownDuringCoalesce(t *testing.T) {
	spool, ckpt := t.TempDir(), t.TempDir()
	files := makeCampaign(t, defaultRanks, 1, 21)

	// First life: upload lands, then the server dies inside the coalesce
	// window — before any campaign ran. The turn must be handed back so
	// the work survives the restart.
	first, kill := restartable(t, spool, ckpt, 30*time.Second)
	first.mustUpload(t, testApp, contentsOf(files))
	kill()
	drainCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := first.srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain after mid-coalesce cancel: %v", err)
	}
	if gen := statusGeneration(t, first); gen != 0 {
		t.Fatalf("no campaign should have completed inside the coalesce window, got generation %d", gen)
	}

	// Second life: Start rescans the spool, finds the unfitted files and
	// fits them without any new upload.
	second, _ := restartable(t, spool, ckpt, 0)
	snap := second.settle(t, testApp)
	if snap.Profiles != len(files) {
		t.Fatalf("restarted server fitted %d profiles, want %d", snap.Profiles, len(files))
	}
	got := second.models(t, testApp)
	want := batchModels(t, spool+"/"+testApp, 1)
	if !bytes.Equal(got, want) {
		t.Error("models after restart differ from batch reference over the same spool")
	}
}

func TestServeShutdownMidFitResume(t *testing.T) {
	spool, ckpt := t.TempDir(), t.TempDir()
	files := makeCampaign(t, defaultRanks, 2, 37)

	// First life: cancel immediately after the upload is acknowledged, so
	// the cancellation races the in-flight campaign. Both outcomes are
	// legal — campaign finished (snapshot published) or campaign aborted
	// (turn handed back) — and the restart must converge either way.
	first, kill := restartable(t, spool, ckpt, 0)
	first.mustUpload(t, testApp, contentsOf(files))
	kill()
	drainCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := first.srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain mid-fit: %v", err)
	}

	// Second life over the same dirs: resume from checkpoints.
	second, _ := restartable(t, spool, ckpt, 0)
	snap := second.settle(t, testApp)
	if snap.Profiles != len(files) {
		t.Fatalf("restarted server fitted %d profiles, want %d", snap.Profiles, len(files))
	}
	restarted := second.models(t, testApp)

	// Control: an uninterrupted server over a copy of the same campaign.
	control := startServer(t, serve.Config{})
	control.mustUpload(t, testApp, contentsOf(files))
	control.settle(t, testApp)
	controlModels := control.models(t, testApp)

	if !bytes.Equal(restarted, controlModels) {
		t.Error("resumed models differ from an uninterrupted server's models")
	}

	// "Serves identical predictions": the full prediction bodies — not
	// just the model file — must match between resumed and control.
	for _, route := range []string{"/predict?x=8", "/speedup?x=8", "/efficiency?x=8", "/cost?x=8"} {
		stA, bodyA := second.do(t, http.MethodGet, "/v1/apps/"+testApp+route, nil)
		stB, bodyB := control.do(t, http.MethodGet, "/v1/apps/"+testApp+route, nil)
		if stA != http.StatusOK || stB != http.StatusOK {
			t.Fatalf("%s: statuses %d/%d, want 200/200", route, stA, stB)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Errorf("%s: resumed response %s differs from control %s", route, bodyA, bodyB)
		}
	}
}

// TestServeDrainIdempotent: draining an idle server returns immediately
// and a second drain is harmless.
func TestServeDrainIdempotent(t *testing.T) {
	s, kill := restartable(t, t.TempDir(), t.TempDir(), 0)
	kill()
	for i := 0; i < 2; i++ {
		ctx, done := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.srv.Drain(ctx); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		done()
	}
}

// statusGeneration reads the published campaign generation off the
// status endpoint (valid even on a stopped server: queries keep working,
// only fit scheduling is dead).
func statusGeneration(tb testing.TB, s *testServer) int64 {
	tb.Helper()
	status, body := s.do(tb, http.MethodGet, "/v1/apps/"+testApp+"/status", nil)
	if status != http.StatusOK {
		tb.Fatalf("status: %d %s", status, body)
	}
	var info struct {
		Generation int64 `json:"generation"`
	}
	decodeJSON(tb, body, &info)
	return info.Generation
}
