package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// FuzzUploadEnvelope asserts the envelope fast path's contract on
// arbitrary bodies. scanEnvelope never writes to the body, whether it
// accepts it or refuses it, so the json.Unmarshal fallback always sees
// the body as it arrived. Whenever it accepts a body, json.Unmarshal
// accepts a copy of it too and gives the same format, and every document
// decodes in place to encoding/json's bytes as a sub-slice of the body
// that shares no byte with any other document. The seeds that probe the
// fast path's edges are the fast-* and fallback-* files under testdata.
func FuzzUploadEnvelope(f *testing.F) {
	f.Add([]byte(`{"format":"json","profiles":[{"content":"{\"app\":\"imdb\"}"}]}`))
	f.Add([]byte(`{"format":"csv","profiles":[{"content":"a,b\n1,2\n"},{"content":""}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		orig := bytes.Clone(body)
		lit, docs, ok := scanEnvelope(body)
		if !bytes.Equal(body, orig) {
			t.Fatalf("scanEnvelope (ok = %v) rewrote the body:\n%q\nwas\n%q", ok, body, orig)
		}
		if !ok {
			return // the fallback decodes it: json.Unmarshal's by construction
		}
		var req uploadRequest
		if err := json.Unmarshal(orig, &req); err != nil {
			t.Fatalf("fast path accepted a body json.Unmarshal refuses: %v", err)
		}
		if format := string(lit.decode()); format != req.Format || len(docs) != len(req.Profiles) {
			t.Fatalf("fast path: format %q, %d documents; json.Unmarshal: format %q, %d documents", format, len(docs), req.Format, len(req.Profiles))
		}
		end := 0 // the first body offset no earlier document reaches
		for i, d := range docs {
			doc := d.decode()
			if !bytes.Equal(doc, []byte(req.Profiles[i].Content)) {
				t.Fatalf("document %d: fast path %q, json.Unmarshal %q", i, doc, req.Profiles[i].Content)
			}
			if cap(doc) == 0 {
				continue // an empty document holds no byte of the body
			}
			off, in := offsetIn(body, doc)
			if !in || off < end {
				t.Fatalf("document %d: capacity %d at body offset %d (inside the body: %v), but earlier documents reach offset %d", i, cap(doc), off, in, end)
			}
			end = off + cap(doc)
		}
	})
}

// offsetIn reports where sub's backing array starts within body's, and
// whether the whole capacity of sub lies inside body.
func offsetIn(body, sub []byte) (int, bool) {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(sub)))
	if p < base {
		return 0, false
	}
	off := int(p - base)
	return off, off+cap(sub) <= len(body)
}

// TestEnvelopeFastPathClasses runs the fast path on the FuzzUploadEnvelope
// seeds named after the class of body they probe: each fallback-* seed
// must leave the fast path and each fast-* seed must stay on it. The
// fuzz target checks that every accepted seed decodes exactly as
// json.Unmarshal decodes it.
func TestEnvelopeFastPathClasses(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzUploadEnvelope", "*"))
	if err != nil {
		t.Fatal(err)
	}
	classes := map[bool]int{}
	for _, path := range paths {
		name := filepath.Base(path)
		wantFast := strings.HasPrefix(name, "fast-")
		if !wantFast && !strings.HasPrefix(name, "fallback-") {
			continue
		}
		classes[wantFast]++
		t.Run(name, func(t *testing.T) {
			if _, _, ok := scanEnvelope(corpusSeed(t, path)); ok != wantFast {
				t.Errorf("fast path ok = %v, want %v", ok, wantFast)
			}
		})
	}
	if classes[true] == 0 || classes[false] == 0 {
		t.Fatalf("found %d fast-* and %d fallback-* seeds", classes[true], classes[false])
	}
}

// corpusSeed reads the one []byte value of a fuzz corpus file.
func corpusSeed(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s is not a single-[]byte corpus file", path)
	}
	seed, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(seed)
}
