package serve_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"extradeep/internal/pipeline"
	"extradeep/internal/profile"
	"extradeep/internal/resilience"
	"extradeep/internal/serve"
)

// renameApp re-labels a campaign's profile documents as application app,
// keyed by their new canonical file names; the measurements are unchanged.
func renameApp(tb testing.TB, files map[string]string, app string) map[string]string {
	tb.Helper()
	out := make(map[string]string, len(files))
	for _, content := range files {
		var p profile.Profile
		if err := json.Unmarshal([]byte(content), &p); err != nil {
			tb.Fatal(err)
		}
		p.App = app
		data, err := json.Marshal(&p)
		if err != nil {
			tb.Fatal(err)
		}
		out[p.FileName()] = string(data)
	}
	return out
}

// TestServeSharedCheckpointStore: every application's campaigns share
// one content-keyed checkpoint store, so a second application uploading
// the same measurements under its own name reuses every fit task, and
// its models still equal a cold batch run over its own spool.
func TestServeSharedCheckpointStore(t *testing.T) {
	const twin = "imdbtwin"
	files := makeCampaign(t, defaultRanks, 2, 53)
	obs := &pipeline.Collector{}
	s := startServer(t, serve.Config{Config: pipeline.Config{
		Checkpoint: &resilience.Store{Dir: t.TempDir()},
		Resume:     true,
		Observer:   obs,
	}})

	s.mustUpload(t, testApp, contentsOf(files))
	s.settle(t, testApp)
	if c := stageCounters(t, obs, pipeline.StageFit); c["reused"] != 0 {
		t.Fatalf("first campaign over an empty store reused %d tasks", c["reused"])
	}

	s.mustUpload(t, twin, contentsOf(renameApp(t, files, twin)))
	s.settle(t, twin)
	c := stageCounters(t, obs, pipeline.StageFit)
	if c["tasks"] == 0 || c["reused"] != c["tasks"] {
		t.Errorf("%s's campaign reused %d of its %d fit tasks, want all of them", twin, c["reused"], c["tasks"])
	}
	if !bytes.Equal(s.models(t, twin), batchModels(t, filepath.Join(s.spool, twin), 1)) {
		t.Errorf("%s's models differ from a cold batch run over its spool", twin)
	}
}
