package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzUploadEnvelope asserts the envelope fast path's contract on
// arbitrary bodies: whenever decodeEnvelope accepts a body, json.Unmarshal
// accepts it too and gives the same format and byte-equal documents, each
// in a slice of exactly its length. The seeds that probe the fast path's
// edges are the fast-* and fallback-* files under testdata.
func FuzzUploadEnvelope(f *testing.F) {
	f.Add([]byte(`{"format":"json","profiles":[{"content":"{\"app\":\"imdb\"}"}]}`))
	f.Add([]byte(`{"format":"csv","profiles":[{"content":"a,b\n1,2\n"},{"content":""}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		format, docs, ok := decodeEnvelope(body)
		if !ok {
			return // the fallback decodes it: json.Unmarshal's by construction
		}
		var req uploadRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("fast path accepted a body json.Unmarshal refuses: %v", err)
		}
		if format != req.Format || len(docs) != len(req.Profiles) {
			t.Fatalf("fast path: format %q, %d documents; json.Unmarshal: format %q, %d documents", format, len(docs), req.Format, len(req.Profiles))
		}
		for i, doc := range docs {
			if !bytes.Equal(doc, []byte(req.Profiles[i].Content)) {
				t.Fatalf("document %d: fast path %q, json.Unmarshal %q", i, doc, req.Profiles[i].Content)
			}
			if cap(doc) != len(doc) {
				t.Fatalf("document %d: %d bytes in a slice of capacity %d", i, len(doc), cap(doc))
			}
		}
	})
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
			if _, _, ok := decodeEnvelope(corpusSeed(t, path)); ok != wantFast {
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
