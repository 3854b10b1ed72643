package serve_test

// Shared fixtures for the edserve protocol harness: deterministic
// simulated measurement campaigns (via the internal/simulator engine),
// an in-process server + httptest client, and the batch-pipeline
// reference path the parity properties compare against.

import (
	"archive/tar"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"extradeep/internal/aggregate"
	"extradeep/internal/core"
	"extradeep/internal/epoch"
	"extradeep/internal/ingest"
	"extradeep/internal/pipeline"
	"extradeep/internal/serve"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

const testApp = "imdb"

// testSetup returns the training-setup function every harness server and
// reference pipeline shares (imdb benchmark, data-parallel weak scaling
// — the writeCampaign fixture of the pipeline tests).
func testSetup(tb testing.TB) epoch.SetupFunc {
	tb.Helper()
	b, err := engine.ByName(testApp)
	if err != nil {
		tb.Fatal(err)
	}
	return engine.SetupFunc(b, parallel.DataParallel{}, true)
}

// makeCampaign simulates one weak-scaling measurement campaign and
// returns the profile files as upload-ready JSON documents, keyed by
// canonical file name. Deterministic in (ranks, reps, seed).
func makeCampaign(tb testing.TB, ranks []int, reps int, seed int64) map[string]string {
	tb.Helper()
	b, err := engine.ByName(testApp)
	if err != nil {
		tb.Fatal(err)
	}
	files := map[string]string{}
	for _, r := range ranks {
		cfg := engine.RunConfig{
			System: hardware.DEEP(), Strategy: parallel.DataParallel{},
			Ranks: r, WeakScaling: true, Seed: seed, SampleRanks: 1,
		}
		for rep := 1; rep <= reps; rep++ {
			ps, err := engine.Profile(b, cfg, rep, true)
			if err != nil {
				tb.Fatal(err)
			}
			for _, p := range ps {
				data, err := json.Marshal(p)
				if err != nil {
					tb.Fatal(err)
				}
				files[p.FileName()] = string(data)
			}
		}
	}
	return files
}

// defaultRanks is the standard modelable campaign extent (5 distinct
// configurations, the degradation gate's minimum).
var defaultRanks = []int{2, 4, 6, 8, 10}

// testServer wraps a started serve.Server with its HTTP front end.
type testServer struct {
	srv   *serve.Server
	ts    *httptest.Server
	spool string
	// ctx is the server's lifecycle context, cancelled by stop.
	ctx context.Context
	// stop cancels the server's lifecycle context (shutdown tests kill
	// the first instance mid-test; Cleanup makes the call idempotent).
	stop context.CancelFunc
}

// startServer builds, starts and exposes a server over httptest. Zero
// Config fields get harness defaults (fresh spool dir, shared setup).
// Cleanup cancels the lifecycle, drains fits and closes the listener.
func startServer(tb testing.TB, cfg serve.Config) *testServer {
	tb.Helper()
	s := newServer(tb, cfg)
	s.start(tb)
	return s
}

// newServer is startServer without the Start call: the handler already
// serves, but no campaign runs until start.
func newServer(tb testing.TB, cfg serve.Config) *testServer {
	tb.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = tb.TempDir()
	}
	if cfg.Setup == nil {
		cfg.Setup = testSetup(tb)
	}
	if cfg.Analyze == (pipeline.AnalyzeOptions{}) {
		cfg.Analyze = pipeline.AnalyzeOptions{CoresPerRank: 1, TopKernels: 10}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(func() {
		ts.Close()
		cancel()
		drainCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
		defer done()
		_ = srv.Drain(drainCtx)
	})
	return &testServer{srv: srv, ts: ts, spool: cfg.SpoolDir, ctx: ctx, stop: cancel}
}

// start starts the server's fitting under its lifecycle context.
func (s *testServer) start(tb testing.TB) {
	tb.Helper()
	if err := s.srv.Start(s.ctx); err != nil {
		tb.Fatal(err)
	}
}

// envelope builds the upload request body for a set of file contents.
func envelope(format string, contents []string) []byte {
	type f struct {
		Content string `json:"content"`
	}
	req := struct {
		Format   string `json:"format"`
		Profiles []f    `json:"profiles"`
	}{Format: format}
	for _, c := range contents {
		req.Profiles = append(req.Profiles, f{Content: c})
	}
	data, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return data
}

// do issues one request and returns status + body.
func (s *testServer) do(tb testing.TB, method, path string, body []byte) (int, []byte) {
	tb.Helper()
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, out
}

// upload POSTs a batch of profile documents and returns status + body.
func (s *testServer) upload(tb testing.TB, app, format string, contents []string) (int, []byte) {
	tb.Helper()
	return s.do(tb, http.MethodPost, "/v1/apps/"+app+"/profiles", envelope(format, contents))
}

// mustUpload is upload asserting the 202 happy path.
func (s *testServer) mustUpload(tb testing.TB, app string, contents []string) {
	tb.Helper()
	status, body := s.upload(tb, app, "json", contents)
	if status != http.StatusAccepted {
		tb.Fatalf("upload: status %d, body %s", status, body)
	}
}

// settle waits until the application has no pending fit work and
// requires the last campaign to have succeeded with a snapshot.
func (s *testServer) settle(tb testing.TB, app string) *serve.Snapshot {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	snap, err := s.srv.Settle(ctx, app)
	if err != nil {
		tb.Fatalf("settle %s: %v", app, err)
	}
	if snap == nil {
		tb.Fatalf("settle %s: no snapshot published", app)
	}
	return snap
}

// models GETs the fitted model file bytes (the fit-parity anchor).
func (s *testServer) models(tb testing.TB, app string) []byte {
	tb.Helper()
	status, body := s.do(tb, http.MethodGet, "/v1/apps/"+app+"/models", nil)
	if status != http.StatusOK {
		tb.Fatalf("models: status %d, body %s", status, body)
	}
	return body
}

// contentsOf flattens a campaign file map into a deterministic
// (name-sorted) content slice for single-batch uploads.
func contentsOf(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = files[n]
	}
	return out
}

// batchModels runs the batch pipeline — option-for-option what the
// extradeep CLI executes — over a directory of profile files and returns
// the canonical encoded model set. This is the reference side of the
// API-versus-batch parity properties.
func batchModels(tb testing.TB, dir string, workers int) []byte {
	tb.Helper()
	pl := pipeline.New(pipeline.Config{Workers: workers, Aggregation: aggregate.DefaultOptions()})
	res, err := pl.Run(context.Background(), pipeline.RunSpec{
		ProfilesDir: dir,
		Format:      "json",
		Ingest:      ingest.Options{Policy: ingest.Lenient},
		Setup:       testSetup(tb),
		Analyze:     pipeline.AnalyzeOptions{CoresPerRank: 1, TopKernels: 10},
	})
	if err != nil {
		tb.Fatalf("batch pipeline over %s: %v", dir, err)
	}
	data, err := core.EncodeModels(res.Models)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// writeProfilesDir materializes campaign files into a fresh directory
// (the way a batch CLI user would lay them out) and returns it.
func writeProfilesDir(tb testing.TB, files map[string]string) string {
	tb.Helper()
	dir := tb.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

// unpackSpool extracts every document of an application's spool
// directory into a fresh directory and returns it: the entries of each
// segment, in name order, as `for f in SPOOL/app/*.tar; do tar -xf "$f"
// -C out; done` extracts them, plus the loose profile files beside the
// segments. The result is the profile directory a batch CLI user
// analyzes, the reference side of every server-versus-batch comparison.
func unpackSpool(tb testing.TB, dir string) string {
	tb.Helper()
	out := tb.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasSuffix(name, ".tar"):
			for _, ent := range segmentEntries(tb, filepath.Join(dir, name)) {
				if err := os.WriteFile(filepath.Join(out, ent.name), ent.data, 0o644); err != nil {
					tb.Fatal(err)
				}
			}
		case strings.HasSuffix(name, ".json"), strings.HasSuffix(name, ".csv"):
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				tb.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(out, name), data, 0o644); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return out
}

// segmentEntry is one document of a spool segment.
type segmentEntry struct {
	name string
	data []byte
	hdr  *tar.Header
}

// segmentEntries reads every entry of the segment at path, in order.
func segmentEntries(tb testing.TB, path string) []segmentEntry {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var out []segmentEntry
	tr := tar.NewReader(f)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			tb.Fatalf("reading segment %s: %v", path, err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			tb.Fatalf("reading segment %s: %v", path, err)
		}
		out = append(out, segmentEntry{name: hdr.Name, data: data, hdr: hdr})
	}
}

// segments returns the names of the segment files of an application's
// spool directory, in name order.
func segments(tb testing.TB, dir string) []string {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tar") {
			out = append(out, e.Name())
		}
	}
	return out
}

// rewriteEntry replaces the bytes of the entry called name, in whichever
// segment of the spool directory holds it, with edit's result, keeping
// every other entry and the entry order.
func rewriteEntry(tb testing.TB, dir, name string, edit func([]byte) []byte) {
	tb.Helper()
	for _, seg := range segments(tb, dir) {
		path := filepath.Join(dir, seg)
		entries := segmentEntries(tb, path)
		found := false
		var buf bytes.Buffer
		tw := tar.NewWriter(&buf)
		for _, e := range entries {
			data := e.data
			if e.name == name {
				data, found = edit(bytes.Clone(data)), true
			}
			if err := tw.WriteHeader(&tar.Header{Typeflag: tar.TypeReg, Name: e.name, Mode: 0o644, Size: int64(len(data))}); err != nil {
				tb.Fatal(err)
			}
			if _, err := tw.Write(data); err != nil {
				tb.Fatal(err)
			}
		}
		if err := tw.Close(); err != nil {
			tb.Fatal(err)
		}
		if found {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				tb.Fatal(err)
			}
			return
		}
	}
	tb.Fatalf("no segment under %s holds %s", dir, name)
}

// decodeJSON unmarshals a response body, failing the test on error.
func decodeJSON(tb testing.TB, body []byte, v any) {
	tb.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		tb.Fatalf("decoding %s: %v", body, err)
	}
}

// errorCode extracts error.code from a refusal body.
func errorCode(tb testing.TB, body []byte) string {
	tb.Helper()
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	decodeJSON(tb, body, &e)
	return e.Error.Code
}
