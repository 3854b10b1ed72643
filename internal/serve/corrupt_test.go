package serve_test

// The corruption suite: every internal/faults damage kind, uploaded
// through the API, must be refused with the right status and per-file
// stage classification — and the store must be provably unchanged (the
// next campaign still matches the batch reference).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"extradeep/internal/calltree"
	"extradeep/internal/faults"
	"extradeep/internal/importer"
	"extradeep/internal/profile"
	"extradeep/internal/serve"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// victimProfile returns one valid rank-4 profile document to damage.
// Its damaged variants never reach admission (they fail validation
// first), so identity collisions with spooled files cannot occur.
func victimProfile(tb testing.TB, seed int64) (name, content string) {
	tb.Helper()
	files := makeCampaign(tb, []int{4}, 1, seed)
	for n, c := range files {
		return n, c
	}
	tb.Fatal("no victim generated")
	return "", ""
}

// uploadDetail decodes the files array of a refusal envelope.
func uploadDetail(tb testing.TB, body []byte) []struct {
	Index  int    `json:"index"`
	Name   string `json:"name"`
	Stage  string `json:"stage"`
	Reason string `json:"reason"`
} {
	tb.Helper()
	var e struct {
		Error struct {
			Files []struct {
				Index  int    `json:"index"`
				Name   string `json:"name"`
				Stage  string `json:"stage"`
				Reason string `json:"reason"`
			} `json:"files"`
		} `json:"error"`
	}
	decodeJSON(tb, body, &e)
	return e.Error.Files
}

// appFiles reads the spooled-file count off the status endpoint.
func appFiles(tb testing.TB, s *testServer, app string) int {
	tb.Helper()
	status, body := s.do(tb, http.MethodGet, "/v1/apps/"+app+"/status", nil)
	if status != http.StatusOK {
		tb.Fatalf("status: %d %s", status, body)
	}
	var info struct {
		Files int `json:"files"`
	}
	decodeJSON(tb, body, &info)
	return info.Files
}

// TestServeCorruptUploads: one server, a settled healthy campaign, then
// every content-damaging fault kind thrown at it. Each damaged upload
// must come back 422 with read/decode/validate stage detail, leave the
// spool untouched, and the final model set must still match the batch
// pipeline over the spool — corruption never reaches the fit.
func TestServeCorruptUploads(t *testing.T) {
	files := makeCampaign(t, defaultRanks, 1, 7)
	s := startServer(t, serve.Config{})
	s.mustUpload(t, testApp, contentsOf(files))
	s.settle(t, testApp)
	baseline := appFiles(t, s, testApp)

	_, victim := victimProfile(t, 99)
	validStages := map[string]bool{"read": true, "decode": true, "validate": true}

	for _, kind := range faults.Kinds() {
		if kind == faults.DuplicateRankRep {
			continue // set-level fault, covered by TestServeDuplicateUpload
		}
		t.Run(kind.String(), func(t *testing.T) {
			damaged, err := faults.Apply(kind, []byte(victim), "json")
			if err != nil {
				t.Fatal(err)
			}
			status, body := s.upload(t, testApp, "json", []string{string(damaged)})
			if status != http.StatusUnprocessableEntity {
				t.Fatalf("%s upload: status %d, want 422; body %s", kind, status, body)
			}
			if code := errorCode(t, body); code != "quarantined" {
				t.Fatalf("%s upload: error code %q, want quarantined", kind, code)
			}
			details := uploadDetail(t, body)
			if len(details) != 1 {
				t.Fatalf("%s upload: %d file details, want 1", kind, len(details))
			}
			d := details[0]
			if !validStages[d.Stage] {
				t.Errorf("%s upload: stage %q not in read/decode/validate", kind, d.Stage)
			}
			if d.Reason == "" {
				t.Errorf("%s upload: empty refusal reason", kind)
			}
			if got := appFiles(t, s, testApp); got != baseline {
				t.Errorf("%s upload: spool grew from %d to %d files despite refusal", kind, baseline, got)
			}
		})
	}

	// The refusals must have been side-effect free: the spool still fits
	// to exactly the batch pipeline's answer.
	snap := s.settle(t, testApp)
	if snap.Generation != 1 {
		t.Errorf("corrupt uploads triggered refits: generation %d, want 1", snap.Generation)
	}
	got := s.models(t, testApp)
	want := batchModels(t, unpackSpool(t, filepath.Join(s.spool, testApp)), 1)
	if !bytes.Equal(got, want) {
		t.Error("models after corrupt-upload barrage differ from batch reference")
	}
}

// TestServeDuplicateUpload covers the set-level DuplicateRankRep fault:
// the same identity twice in one batch, and an upload colliding with an
// already-spooled file, are both 409 conflicts that change nothing.
func TestServeDuplicateUpload(t *testing.T) {
	s := startServer(t, serve.Config{})
	_, victim := victimProfile(t, 11)

	// Same identity twice within one batch: atomic refusal.
	status, body := s.upload(t, testApp, "json", []string{victim, victim})
	if status != http.StatusConflict {
		t.Fatalf("in-batch duplicate: status %d, want 409; body %s", status, body)
	}
	if code := errorCode(t, body); code != "conflict_duplicate" {
		t.Fatalf("in-batch duplicate: error code %q, want conflict_duplicate", code)
	}
	if got := appFiles(t, s, testApp); got != 0 {
		t.Fatalf("in-batch duplicate spooled %d files, want 0 (atomic refusal)", got)
	}

	// Spool it once, then collide with the spooled copy.
	s.mustUpload(t, testApp, []string{victim})
	status, body = s.upload(t, testApp, "json", []string{victim})
	if status != http.StatusConflict {
		t.Fatalf("spool duplicate: status %d, want 409; body %s", status, body)
	}
	if code := errorCode(t, body); code != "conflict_duplicate" {
		t.Fatalf("spool duplicate: error code %q, want conflict_duplicate", code)
	}
	if got := appFiles(t, s, testApp); got != 1 {
		t.Fatalf("spool duplicate left %d files, want 1", got)
	}
}

// TestServeFormatConflict: an application's profile format is fixed by
// its first upload; a later upload in the other format is a 409.
func TestServeFormatConflict(t *testing.T) {
	s := startServer(t, serve.Config{})
	_, victim := victimProfile(t, 13)
	s.mustUpload(t, testApp, []string{victim})

	var csvDoc bytes.Buffer
	b, err := engine.ByName(testApp)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := engine.Profile(b, engine.RunConfig{
		System: hardware.DEEP(), Strategy: parallel.DataParallel{},
		Ranks: 8, WeakScaling: true, Seed: 13, SampleRanks: 1,
	}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := importer.WriteCSV(&csvDoc, ps[0]); err != nil {
		t.Fatal(err)
	}
	status, body := s.upload(t, testApp, "csv", []string{csvDoc.String()})
	if status != http.StatusConflict {
		t.Fatalf("format switch: status %d, want 409; body %s", status, body)
	}
	if code := errorCode(t, body); code != "conflict_format" {
		t.Fatalf("format switch: error code %q, want conflict_format", code)
	}
}

// TestServeCSVCorruption: the CSV decode path classifies damage too —
// a CSV document without its magic header is refused at the decode
// stage, and NaN metrics (syntactically valid CSV) at validate.
func TestServeCSVCorruption(t *testing.T) {
	b, err := engine.ByName(testApp)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := engine.Profile(b, engine.RunConfig{
		System: hardware.DEEP(), Strategy: parallel.DataParallel{},
		Ranks: 4, WeakScaling: true, Seed: 17, SampleRanks: 1,
	}, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := importer.WriteCSV(&doc, ps[0]); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		kind      faults.Kind
		wantStage string
	}{
		{faults.MissingHeader, "decode"},
		{faults.NaNMetric, "validate"},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			s := startServer(t, serve.Config{})
			damaged, err := faults.Apply(tc.kind, doc.Bytes(), "csv")
			if err != nil {
				t.Fatal(err)
			}
			status, body := s.upload(t, testApp, "csv", []string{string(damaged)})
			if status != http.StatusUnprocessableEntity {
				t.Fatalf("status %d, want 422; body %s", status, body)
			}
			details := uploadDetail(t, body)
			if len(details) != 1 || details[0].Stage != tc.wantStage {
				t.Fatalf("detail %+v, want single %s-stage refusal", details, tc.wantStage)
			}
		})
	}
}

// TestServeAppMismatch: a structurally valid profile declaring a
// different application than the URL path is a 400, not a quarantine —
// the client addressed the wrong collection.
func TestServeAppMismatch(t *testing.T) {
	s := startServer(t, serve.Config{})
	_, victim := victimProfile(t, 23)
	status, body := s.upload(t, "cifar10", "json", []string{victim})
	if status != http.StatusBadRequest {
		t.Fatalf("app mismatch: status %d, want 400; body %s", status, body)
	}
	if code := errorCode(t, body); code != "app_mismatch" {
		t.Fatalf("app mismatch: error code %q, want app_mismatch", code)
	}
	if !strings.Contains(string(body), testApp) {
		t.Errorf("app mismatch body should name the declared application; got %s", body)
	}
}

// TestServeEnvelopeRefusals: malformed envelopes are 400s with the
// bad_request code, before any profile-level validation runs. Valid
// envelopes that json.Marshal would not write are accepted — keys in
// another case and an unknown extra key (both decoded by the
// json.Unmarshal fallback), and a pretty-printed body — and each spools
// the same bytes and fits the same models as the canonical upload.
func TestServeEnvelopeRefusals(t *testing.T) {
	s := startServer(t, serve.Config{})
	cases := []struct {
		name string
		body []byte
	}{
		{"not json", []byte("profiles=please")},
		{"unknown format", []byte(`{"format":"xml","profiles":[{"content":"x"}]}`)},
		{"no profiles", []byte(`{"format":"json","profiles":[]}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := s.do(t, http.MethodPost, "/v1/apps/"+testApp+"/profiles", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", status, body)
			}
			if code := errorCode(t, body); code != "bad_request" {
				t.Fatalf("error code %q, want bad_request", code)
			}
		})
	}

	canonical := envelope("json", contentsOf(makeCampaign(t, defaultRanks, 1, 23)))
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, canonical, "", "\t"); err != nil {
		t.Fatal(err)
	}
	upload := func(t *testing.T, body []byte) (spooled map[string][]byte, models []byte) {
		t.Helper()
		s := startServer(t, serve.Config{})
		if status, resp := s.do(t, http.MethodPost, "/v1/apps/"+testApp+"/profiles", body); status != http.StatusAccepted {
			t.Fatalf("status %d, want 202; body %s", status, resp)
		}
		s.settle(t, testApp)
		return spoolFiles(t, filepath.Join(s.spool, testApp)), s.models(t, testApp)
	}
	wantSpool, wantModels := upload(t, canonical)
	if len(wantSpool) != len(defaultRanks) {
		t.Fatalf("canonical upload spooled %d files, want %d", len(wantSpool), len(defaultRanks))
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"keys in another case", bytes.ReplaceAll(bytes.Replace(canonical, []byte(`"format":`), []byte(`"FORMAT":`), 1), []byte(`"content":`), []byte(`"Content":`))},
		{"unknown key", append([]byte(`{"comment":"rank sweep",`), canonical[1:]...)},
		{"pretty-printed", pretty.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spooled, models := upload(t, tc.body)
			if !reflect.DeepEqual(spooled, wantSpool) {
				t.Errorf("spooled %d files that differ from the canonical upload's %d", len(spooled), len(wantSpool))
			}
			if !bytes.Equal(models, wantModels) {
				t.Errorf("models differ from the canonical upload's:\n%s\n%s", models, wantModels)
			}
		})
	}
}

// spoolFiles reads every document of a spool directory, unpacked,
// keyed by name.
func spoolFiles(tb testing.TB, dir string) map[string][]byte {
	tb.Helper()
	dir = unpackSpool(tb, dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestServeUploadTooLarge: bodies over the configured cap are 413.
func TestServeUploadTooLarge(t *testing.T) {
	s := startServer(t, serve.Config{MaxUploadBytes: 512})
	big := envelope("json", []string{strings.Repeat("x", 4096)})
	status, body := s.do(t, http.MethodPost, "/v1/apps/"+testApp+"/profiles", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413; body %s", status, body)
	}
	if code := errorCode(t, body); code != "too_large" {
		t.Fatalf("oversized upload: error code %q, want too_large", code)
	}
}

// switchKind rewrites a profile document so that the last event of its
// first CUDA kernel runs as a memcpy: a valid document whose kernel
// switches from a compute to a memory kind within its training phase.
func switchKind(tb testing.TB, doc string) string {
	tb.Helper()
	var p profile.Profile
	if err := json.Unmarshal([]byte(doc), &p); err != nil {
		tb.Fatal(err)
	}
	first, last := -1, -1
	for i, e := range p.Trace.Events {
		if first < 0 && e.Kind == calltree.KindCUDA {
			first = i
		}
		if first >= 0 && e.Callpath == p.Trace.Events[first].Callpath && e.Name == p.Trace.Events[first].Name {
			last = i
		}
	}
	if last <= first {
		tb.Fatal("no CUDA kernel with two events to switch")
	}
	p.Trace.Events[last].Kind = calltree.KindMemcpy
	p.Trace.Events[last].Bytes = 4096
	if err := p.Validate(); err != nil {
		tb.Fatalf("switched document fails validation: %v", err)
	}
	data, err := json.Marshal(&p)
	if err != nil {
		tb.Fatal(err)
	}
	return string(data)
}

// TestServeKernelKindSwitch: a document whose kernel switches from a
// compute to a memory kind mid-phase passes validation; its campaign
// completes and publishes a snapshot, and the server keeps serving.
func TestServeKernelKindSwitch(t *testing.T) {
	files := makeCampaign(t, defaultRanks, 1, 41)
	contents := contentsOf(files)
	contents[0] = switchKind(t, contents[0])
	s := startServer(t, serve.Config{})
	s.mustUpload(t, testApp, contents)
	s.settle(t, testApp)
	if status, body := s.do(t, http.MethodGet, "/v1/apps/"+testApp+"/status", nil); status != http.StatusOK {
		t.Fatalf("status after the campaign: %d %s", status, body)
	}
}
