package serve_test

// The upload-path suite: how the handler reads an upload body (declared
// length, chunked, over the cap, cut short) and which envelope decoder
// the harness's own uploads take, plus BenchmarkUpload, the
// decode/validate layer's benchmark.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"extradeep/internal/importer"
	"extradeep/internal/pipeline"
	"extradeep/internal/profile"
	"extradeep/internal/serve"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// serveUpload runs one upload through the handler of a new, un-started
// server over spool: nothing fits, so the request costs the body read,
// the envelope decode, the validation and the spool writes.
func serveUpload(tb testing.TB, cfg serve.Config, app string, body []byte) *httptest.ResponseRecorder {
	tb.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/apps/"+app+"/profiles", bytes.NewReader(body)))
	return rec
}

// csvContents converts JSON profile documents to the CSV format.
func csvContents(tb testing.TB, docs []string) []string {
	tb.Helper()
	out := make([]string, len(docs))
	for i, doc := range docs {
		var p profile.Profile
		if err := json.Unmarshal([]byte(doc), &p); err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := importer.WriteCSV(&buf, &p); err != nil {
			tb.Fatal(err)
		}
		out[i] = buf.String()
	}
	return out
}

// TestServeEnvelopeTakesFastPath pins that the bodies the harness
// uploads, as json.Marshal writes them, take the envelope fast path for
// both formats: a regression there would keep every response
// byte-identical while decoding every upload at json.Unmarshal's cost.
// The decoder is not visible from this package, so the test tells the
// paths apart by allocations against the same body with one key in
// another case, which only the fallback takes: json.Unmarshal allocates
// at least one string per document, which the fast path never does. The
// garbage collector is off while measuring, so the decoders' pools keep
// their buffers. Under the race detector sync.Pool drops Puts at random,
// which adds allocations that differ from one measurement to the next,
// so each side counts the fewest over several measurements
// (leastAllocsPerRun).
func TestServeEnvelopeTakesFastPath(t *testing.T) {
	docs := contentsOf(makeCampaign(t, defaultRanks, 2, 5))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		format string
		docs   []string
	}{
		{"json", docs},
		{"csv", csvContents(t, docs)},
	} {
		t.Run(tc.format, func(t *testing.T) {
			body := envelope(tc.format, tc.docs)
			fallback := bytes.Replace(body, []byte(`{"format":`), []byte(`{"Format":`), 1)
			cfg := serve.Config{Config: pipeline.Config{Workers: 1}, Setup: testSetup(t)}
			responses := map[string][]byte{}
			allocs := map[string]float64{}
			for name, b := range map[string][]byte{"canonical": body, "fallback": fallback} {
				allocs[name] = leastAllocsPerRun(3, func() {
					cfg.SpoolDir = t.TempDir()
					rec := serveUpload(t, cfg, testApp, b)
					if rec.Code != http.StatusAccepted {
						t.Fatalf("%s upload: status %d, body %s", name, rec.Code, rec.Body)
					}
					responses[name] = rec.Body.Bytes()
				})
			}
			if !bytes.Equal(responses["canonical"], responses["fallback"]) {
				t.Fatalf("responses differ:\n%s\n%s", responses["canonical"], responses["fallback"])
			}
			t.Logf("allocations per upload: canonical %v, fallback %v", allocs["canonical"], allocs["fallback"])
			if allocs["canonical"]+float64(len(tc.docs)) > allocs["fallback"] {
				t.Errorf("canonical body made %v allocations, the fallback %v: the harness envelope left the fast path", allocs["canonical"], allocs["fallback"])
			}
		})
	}
}

// leastAllocsPerRun is the fewest allocations per run of f over several
// testing.AllocsPerRun measurements of runs runs each: the count with the
// fewest pooled buffers lost.
func leastAllocsPerRun(runs int, f func()) float64 {
	least := testing.AllocsPerRun(runs, f)
	for range 4 {
		least = min(least, testing.AllocsPerRun(runs, f))
	}
	return least
}

// TestServeUploadChunked: a body without a Content-Length is read as it
// arrives, under the same cap — accepted below it, 413 above it.
func TestServeUploadChunked(t *testing.T) {
	docs := contentsOf(makeCampaign(t, defaultRanks, 1, 3))
	small := envelope("json", docs)
	s := startServer(t, serve.Config{MaxUploadBytes: int64(len(small))})
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"under the cap", small, http.StatusAccepted, ""},
		{"over the cap", envelope("json", append(docs, docs[0])), http.StatusRequestEntityTooLarge, "too_large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A reader of unknown length makes the client send the body
			// chunked.
			req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/apps/"+testApp+"/profiles", struct{ io.Reader }{bytes.NewReader(tc.body)})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := s.ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d; body %s", resp.StatusCode, tc.status, body)
			}
			if tc.code != "" {
				if code := errorCode(t, body); code != tc.code {
					t.Fatalf("error code %q, want %q", code, tc.code)
				}
			}
		})
	}
}

// TestServeUploadDeclaredTooLarge: a declared Content-Length over the cap
// is refused with 413 before the body is read, and the server allocates
// no buffer of the declared size.
func TestServeUploadDeclaredTooLarge(t *testing.T) {
	const limit, declared = 64 << 10, 32 << 20
	srv, err := serve.New(serve.Config{SpoolDir: t.TempDir(), Setup: testSetup(t), MaxUploadBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/apps/"+testApp+"/profiles", bytes.NewReader([]byte(`{"format":"json"}`)))
	req.ContentLength = declared
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413; body %s", rec.Code, rec.Body)
	}
	if code := errorCode(t, rec.Body.Bytes()); code != "too_large" {
		t.Fatalf("error code %q, want too_large", code)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > limit {
		t.Errorf("refusing a body that declares %d bytes allocated %d bytes, more than the %d-byte cap", declared, n, limit)
	}
}

// TestServeUploadShortBody: a body that ends before its declared
// Content-Length is a 400 bad_request.
func TestServeUploadShortBody(t *testing.T) {
	s := startServer(t, serve.Config{})
	conn, err := net.Dial("tcp", s.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	part := `{"format":"json","profiles":[`
	if _, err := fmt.Fprintf(conn, "POST /v1/apps/%s/profiles HTTP/1.1\r\nHost: edserve\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", testApp, 10*len(part), part); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
	if code := errorCode(t, body); code != "bad_request" {
		t.Fatalf("error code %q, want bad_request", code)
	}
}

// caseStudyEnvelope is the upload body of the cifar10 case study that
// perfbench's serve-upload workload posts: 5 rank counts × 5
// repetitions × 4 sampled ranks, 90 JSON documents in file-name order.
func caseStudyEnvelope(tb testing.TB) []byte {
	tb.Helper()
	b, err := engine.ByName("cifar10")
	if err != nil {
		tb.Fatal(err)
	}
	files := map[string]string{}
	for _, r := range defaultRanks {
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
				files[p.FileName()] = string(data)
			}
		}
	}
	if len(files) != 90 {
		tb.Fatalf("case study has %d documents, want 90", len(files))
	}
	return envelope("json", contentsOf(files))
}

// BenchmarkUpload measures the decode/validate layer of the service
// path: one 90-document case-study upload through the handler of a new,
// un-started server, so nothing fits. Each iteration reads the body,
// decodes the envelope, decodes and validates every document and spools
// the batch; building the server and clearing its spool are not timed.
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
		srv, err := serve.New(serve.Config{SpoolDir: spool, Setup: setup})
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
