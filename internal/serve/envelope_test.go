package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// scanEnvelope runs the envelope scanner over a whole body the way an
// upload does and returns the format, every document and whether the
// fast path accepted the body. The scanner rewrites body.
func scanEnvelope(body []byte) (format []byte, docs [][]byte, ok bool) {
	sc := envScanner{data: body}
	format = sc.header()
	for doc, more := sc.next(); more; doc, more = sc.next() {
		docs = append(docs, doc)
	}
	return format, docs, sc.end()
}

// FuzzUploadEnvelope asserts the envelope fast path's contract on
// arbitrary bodies, against encoding/json's decode of a pristine copy.
// Whenever the scanner accepts a body, json.Unmarshal accepts it too and
// gives the same format and the same number of documents; every document
// equals encoding/json's both when the scanner hands it out and after
// the scan, so nothing writes to it once handed out, and each is a
// sub-slice of the body that shares no byte with any other. Whenever the
// scanner refuses a body, json.Unmarshal of the rebuilt body gives the
// same error text, or the same uploadRequest, as it gives for the
// pristine copy, and the rebuilt body is no longer than the pristine
// one. The seeds that probe the fast path's edges are the fast-* and
// fallback-* files under testdata.
func FuzzUploadEnvelope(f *testing.F) {
	f.Add([]byte(`{"format":"json","profiles":[{"content":"{\"app\":\"imdb\"}"}]}`))
	f.Add([]byte(`{"format":"csv","profiles":[{"content":"a,b\n1,2\n"},{"content":""}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		orig := bytes.Clone(body)
		var want uploadRequest
		wantErr := json.Unmarshal(orig, &want)
		sc := envScanner{data: body}
		format := sc.header()
		var docs, early [][]byte
		for doc, more := sc.next(); more; doc, more = sc.next() {
			docs = append(docs, doc)
			early = append(early, bytes.Clone(doc))
		}
		if !sc.end() {
			rebuilt := sc.rebuild()
			if len(rebuilt) > len(orig) {
				t.Fatalf("rebuilt body is %d bytes, the body %d", len(rebuilt), len(orig))
			}
			var got uploadRequest
			gotErr := json.Unmarshal(rebuilt, &got)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("rebuilt body decodes to %+v (%v), the body to %+v (%v)\nrebuilt %q\nbody    %q", got, gotErr, want, wantErr, rebuilt, orig)
			}
			return
		}
		if wantErr != nil {
			t.Fatalf("fast path accepted a body json.Unmarshal refuses: %v", wantErr)
		}
		if string(format) != want.Format || len(docs) != len(want.Profiles) {
			t.Fatalf("fast path: format %q, %d documents; json.Unmarshal: format %q, %d documents", format, len(docs), want.Format, len(want.Profiles))
		}
		end := 0 // the first body offset no earlier document reaches
		for i, doc := range docs {
			w := []byte(want.Profiles[i].Content)
			if !bytes.Equal(early[i], w) || !bytes.Equal(doc, w) {
				t.Fatalf("document %d: handed out as %q, %q after the scan; json.Unmarshal %q", i, early[i], doc, w)
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
