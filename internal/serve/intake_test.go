package serve

// The upload pipeline's suite: refusals that arrive late in the
// envelope or mid-batch, at several worker counts, and the layer
// benchmarks of the POST (BenchmarkScanEnvelope, BenchmarkUpload).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"extradeep/internal/faults"
	"extradeep/internal/pipeline"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// intakeWorkers are the validation worker counts every refusal must
// answer the same at.
var intakeWorkers = []int{1, 2, 4}

// newIntakeServer builds an un-started server over a fresh spool, with
// workers validation workers, for the imdb documents of testBatch.
func newIntakeServer(tb testing.TB, workers int) (*Server, string) {
	tb.Helper()
	b, err := engine.ByName("imdb")
	if err != nil {
		tb.Fatal(err)
	}
	spool := tb.TempDir()
	srv, err := New(Config{Config: pipeline.Config{Workers: workers}, SpoolDir: spool, Setup: engine.SetupFunc(b, parallel.DataParallel{}, true)})
	if err != nil {
		tb.Fatal(err)
	}
	return srv, spool
}

// post runs one upload through srv's handler under ctx.
func post(srv *Server, ctx context.Context, app string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/apps/"+app+"/profiles", body).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// envelopeOf is the canonical upload body of docs, as json.Marshal
// writes it.
func envelopeOf(tb testing.TB, format string, docs [][]byte) []byte {
	tb.Helper()
	req := uploadRequest{Format: format, Profiles: []uploadFile{}}
	for _, d := range docs {
		req.Profiles = append(req.Profiles, uploadFile{Content: string(d)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// batchDocs returns the documents of a test batch, in order.
func batchDocs(batch []upload) [][]byte {
	docs := make([][]byte, len(batch))
	for i, u := range batch {
		docs[i] = u.data
	}
	return docs
}

// spoolArtifacts lists, relative to spool, every part file and every
// segment under it.
func spoolArtifacts(tb testing.TB, spool string) (parts, segs []string) {
	tb.Helper()
	err := filepath.WalkDir(spool, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(spool, path)
		switch {
		case strings.HasSuffix(rel, ".part"):
			parts = append(parts, rel)
		case strings.HasSuffix(rel, segmentExt):
			segs = append(segs, rel)
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	sort.Strings(segs)
	return parts, segs
}

// segmentBytes reads every segment under spool, in name order.
func segmentBytes(tb testing.TB, spool string) [][]byte {
	tb.Helper()
	parts, segs := spoolArtifacts(tb, spool)
	if len(parts) > 0 {
		tb.Fatalf("part files left behind: %q", parts)
	}
	out := make([][]byte, len(segs))
	for i, s := range segs {
		data, err := os.ReadFile(filepath.Join(spool, s))
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// wantUpload is what uploading body to a fresh server must give: the
// refusal encoding/json's decode of the envelope leads to, or else
// exactly the response and segments of uploading the documents
// json.Unmarshal decodes in a canonical envelope.
func wantUpload(t *testing.T, app string, body []byte) (*httptest.ResponseRecorder, [][]byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	var req uploadRequest
	switch err := json.Unmarshal(body, &req); {
	case err != nil:
		writeError(rec, http.StatusBadRequest, "bad_request", "malformed upload envelope: "+err.Error(), nil)
	case req.Format != "json" && req.Format != "csv":
		writeError(rec, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown profile format %q (have json, csv)", req.Format), nil)
	case len(req.Profiles) == 0:
		writeError(rec, http.StatusBadRequest, "bad_request", "upload envelope contains no profiles", nil)
	default:
		docs := make([][]byte, len(req.Profiles))
		for i, f := range req.Profiles {
			docs[i] = []byte(f.Content)
		}
		srv, spool := newIntakeServer(t, 1)
		rec = post(srv, context.Background(), app, bytes.NewReader(envelopeOf(t, req.Format, docs)))
		return rec, segmentBytes(t, spool)
	}
	return rec, nil
}

// insertAt returns body with s inserted at offset i.
func insertAt(body []byte, i int, s string) []byte {
	return append(append(append([]byte{}, body[:i]...), s...), body[i:]...)
}

// TestIntakeLateDeparture: a body whose departure from the envelope's
// fast path comes only after N canonical documents, which the workers
// have begun to decode by then, answers exactly as encoding/json's
// decode of the body leads to, at every worker count: the same status
// and envelope bytes, the same segment when accepted, and no part file
// or segment left behind when refused. Any write to the body before the
// scanner accepted it would change what the fallback decodes.
func TestIntakeLateDeparture(t *testing.T) {
	batch := testBatch(t, defaultTestRanks, 4, 83)
	app := batch[0].profile.App
	docs := batchDocs(batch)
	canon := envelopeOf(t, "json", docs)
	// A spot inside a string value of the last document's literal.
	last := bytes.LastIndex(canon, []byte(`\"name\":\"`)) + len(`\"name\":\"`)
	first, err := json.Marshal(string(docs[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"unknown key", insertAt(canon, len(canon)-1, `,"extra":1`)},
		{"duplicate key", insertAt(canon, len(canon)-1, `,"profiles":[{"content":`+string(first)+`}]`)},
		{"trailing data", append(bytes.Clone(canon), " x"...)},
		{"surrogate pair in the last literal", insertAt(canon, last, "\x5cud83d\x5cude00")},
		{"lone surrogate in the last literal", insertAt(canon, last, "\x5cudc00")},
		{"control byte in the last literal", insertAt(canon, last, "\x01")},
		{"unknown format", envelopeOf(t, "xml", docs)},
		{"empty array", envelopeOf(t, "json", nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantSegs := wantUpload(t, app, tc.body)
			for _, workers := range intakeWorkers {
				srv, spool := newIntakeServer(t, workers)
				got := post(srv, context.Background(), app, bytes.NewReader(tc.body))
				if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Errorf("workers=%d: %d %s\nwant %d %s", workers, got.Code, got.Body, want.Code, want.Body)
				}
				segs := segmentBytes(t, spool)
				if len(segs) != len(wantSegs) {
					t.Fatalf("workers=%d: %d segments spooled, want %d", workers, len(segs), len(wantSegs))
				}
				for i := range segs {
					if !bytes.Equal(segs[i], wantSegs[i]) {
						t.Errorf("workers=%d: segment %d differs from the canonical upload's", workers, i)
					}
				}
			}
		})
	}
}

// cancelAtEOF is a request body that cancels the request's context as
// it reports the end of the body, so the deadline has passed by the time
// the documents are validated.
type cancelAtEOF struct {
	r      io.Reader
	cancel context.CancelFunc
}

func (c cancelAtEOF) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err == io.EOF {
		c.cancel()
	}
	return n, err
}

// TestIntakeMidBatchRefusals: a batch refused after its documents began
// to stream into the part file — a duplicate identity in the batch or in
// the spool, a damaged document, a document of another application, a
// deadline during validation — answers with the same envelope at every
// worker count and leaves no part file and no new segment behind.
func TestIntakeMidBatchRefusals(t *testing.T) {
	batch := testBatch(t, defaultTestRanks, 4, 89)
	app := batch[0].profile.App
	docs := batchDocs(batch)
	const k = 13
	with := func(i int, doc []byte) [][]byte {
		out := append([][]byte{}, docs...)
		out[i] = doc
		return out
	}
	damaged, err := faults.Apply(faults.Truncate, docs[k], "json")
	if err != nil {
		t.Fatal(err)
	}
	appField := fmt.Sprintf(`"app":%q`, app)
	if !bytes.Contains(docs[k], []byte(appField)) {
		t.Fatalf("document %d has no %s field", k, appField)
	}
	other := bytes.Replace(docs[k], []byte(appField), []byte(`"app":"other"`), 1)
	for _, tc := range []struct {
		name    string
		spooled [][]byte // uploaded first, accepted
		body    []byte
		status  int
		code    string
		cancel  bool
	}{
		{name: "duplicate in the batch", body: envelopeOf(t, "json", append(append([][]byte{}, docs...), docs[k])), status: http.StatusConflict, code: "conflict_duplicate"},
		{name: "duplicate of a spooled document", spooled: docs[k : k+1], body: envelopeOf(t, "json", docs), status: http.StatusConflict, code: "conflict_duplicate"},
		{name: "damaged document", body: envelopeOf(t, "json", with(k, damaged)), status: http.StatusUnprocessableEntity, code: "quarantined"},
		{name: "document of another application", body: envelopeOf(t, "json", with(k, other)), status: http.StatusBadRequest, code: "app_mismatch"},
		{name: "deadline during validation", body: envelopeOf(t, "json", docs), status: http.StatusServiceUnavailable, code: "deadline", cancel: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for _, workers := range intakeWorkers {
				srv, spool := newIntakeServer(t, workers)
				if tc.spooled != nil {
					if rec := post(srv, context.Background(), app, bytes.NewReader(envelopeOf(t, "json", tc.spooled))); rec.Code != http.StatusAccepted {
						t.Fatalf("first upload: %d %s", rec.Code, rec.Body)
					}
				}
				_, before := spoolArtifacts(t, spool)
				ctx, cancel := context.WithCancel(context.Background())
				var body io.Reader = bytes.NewReader(tc.body)
				if tc.cancel {
					body = cancelAtEOF{r: body, cancel: cancel}
				}
				got := post(srv, ctx, app, body)
				cancel()
				if got.Code != tc.status {
					t.Fatalf("workers=%d: status %d, want %d; body %s", workers, got.Code, tc.status, got.Body)
				}
				var e errorBody
				if err := json.Unmarshal(got.Body.Bytes(), &e); err != nil || e.Error.Code != tc.code {
					t.Fatalf("workers=%d: error code %q (%v), want %q", workers, e.Error.Code, err, tc.code)
				}
				if tc.status == http.StatusUnprocessableEntity && (len(e.Error.Files) != 1 || e.Error.Files[0].Index != k) {
					t.Errorf("workers=%d: refused files %+v, want document %d alone", workers, e.Error.Files, k)
				}
				if want == nil {
					want = got.Body.Bytes()
				} else if !bytes.Equal(got.Body.Bytes(), want) {
					t.Errorf("workers=%d: %s\ndiffers from workers=%d: %s", workers, got.Body, intakeWorkers[0], want)
				}
				parts, segs := spoolArtifacts(t, spool)
				if len(parts) > 0 || len(segs) != len(before) {
					t.Errorf("workers=%d: left part files %q and segments %q, had segments %q", workers, parts, segs, before)
				}
			}
		})
	}
}

// defaultTestRanks is a modelable imdb campaign extent.
var defaultTestRanks = []int{2, 4, 6, 8, 10}

// caseStudyEnvelope is the upload body of the cifar10 case study that
// perfbench's serve-upload workload posts: 5 rank counts × 5
// repetitions × 4 sampled ranks, 90 JSON documents in file-name order.
func caseStudyEnvelope(tb testing.TB) []byte {
	tb.Helper()
	b, err := engine.ByName("cifar10")
	if err != nil {
		tb.Fatal(err)
	}
	files := map[string][]byte{}
	for _, r := range defaultTestRanks {
		cfg := engine.RunConfig{
			System: hardware.DEEP(), Strategy: parallel.DataParallel{},
			Ranks: r, WeakScaling: true, Seed: 1, SampleRanks: 4,
		}
		for rep := 1; rep <= 5; rep++ {
			ps, err := engine.Profile(b, cfg, rep, true)
			if err != nil {
				tb.Fatal(err)
			}
			for _, p := range ps {
				data, err := json.Marshal(p)
				if err != nil {
					tb.Fatal(err)
				}
				files[p.FileName()] = data
			}
		}
	}
	if len(files) != 90 {
		tb.Fatalf("case study has %d documents, want 90", len(files))
	}
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	docs := make([][]byte, len(names))
	for i, n := range names {
		docs[i] = files[n]
	}
	return envelopeOf(tb, "json", docs)
}

// BenchmarkScanEnvelope measures the envelope scan alone, the layer that
// hands documents to the validation workers: one pass of envScanner over
// the case-study envelope, never writing to it.
//
//	go test -run '^$' -bench BenchmarkScanEnvelope -benchmem ./internal/serve
func BenchmarkScanEnvelope(b *testing.B) {
	body := caseStudyEnvelope(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := envScanner{data: body}
		sc.header()
		for _, more := sc.next(); more; _, more = sc.next() {
		}
		if !sc.end() {
			b.Fatal("case-study envelope left the fast path")
		}
	}
}

// BenchmarkUpload measures the whole upload POST of the service path:
// one 90-document case-study upload through the handler of a new,
// un-started server, so nothing fits. Each iteration reads the body,
// scans the envelope while the workers decode and validate the
// documents, streams them into the part file, syncs it and publishes the
// segment; building the server and clearing its spool are not timed.
//
//	go test -run '^$' -bench BenchmarkUpload -benchtime 20x -count 5 ./internal/serve
func BenchmarkUpload(b *testing.B) {
	body := caseStudyEnvelope(b)
	bench, err := engine.ByName("cifar10")
	if err != nil {
		b.Fatal(err)
	}
	setup := engine.SetupFunc(bench, parallel.DataParallel{}, true)
	root := b.TempDir()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		spool := filepath.Join(root, "spool")
		srv, err := New(Config{SpoolDir: spool, Setup: setup})
		if err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		req := httptest.NewRequest(http.MethodPost, "/v1/apps/cifar10/profiles", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		b.StartTimer()
		h.ServeHTTP(rec, req)
		b.StopTimer()
		if rec.Code != http.StatusAccepted {
			b.Fatalf("status %d, body %s", rec.Code, rec.Body)
		}
		if err := os.RemoveAll(spool); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
