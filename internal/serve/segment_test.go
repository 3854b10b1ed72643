package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"extradeep/internal/faults"
	"extradeep/internal/ingest"
	"extradeep/internal/pipeline"
	"extradeep/internal/profile"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// testBatch simulates an imdb weak-scaling campaign and returns it as an
// admitted upload batch in name order: each document's canonical name,
// JSON bytes and decoded profile.
func testBatch(tb testing.TB, ranks []int, reps int, seed int64) []upload {
	tb.Helper()
	b, err := engine.ByName("imdb")
	if err != nil {
		tb.Fatal(err)
	}
	var batch []upload
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
				batch = append(batch, decodedUpload(tb, p.FileName(), data))
			}
		}
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].name < batch[j].name })
	return batch
}

// decodedUpload is one admitted document: its bytes and their decode.
func decodedUpload(tb testing.TB, name string, data []byte) upload {
	tb.Helper()
	p, _, err := ingest.DecodeBytes(data, "json")
	if err != nil {
		tb.Fatal(err)
	}
	return upload{name: name, data: data, profile: p}
}

// loadSpool runs one campaign's ingest hook over dir.
func loadSpool(tb testing.TB, dir string, workers int, handoff map[string][]upload) []ingest.File {
	tb.Helper()
	files, err := spoolLoader(dir, "json", workers, handoff)(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return files
}

// TestEntryReusesOnlyIdenticalBytes pins the decode handoff's entry
// compare: a handed-off profile is reused only when the segment entry
// holds exactly its bytes, compared to the end of the entry. An entry
// that differs anywhere — in the first byte, on either side of a
// compare-buffer boundary, in the last byte, by a byte more or a byte
// less — is decoded from the spool exactly as a plain decode of the
// entry's bytes, valid or not. A segment cut inside the entry is a
// read-stage failure naming the segment.
func TestEntryReusesOnlyIdenticalBytes(t *testing.T) {
	doc := testBatch(t, []int{2}, 1, 1)[0]
	data := doc.data
	// Trailing whitespace keeps the document valid and makes it span
	// three compare buffers.
	large := append(bytes.Clone(data), bytes.Repeat([]byte{' '}, 2*compareBufSize)...)
	flip := func(i int) []byte {
		b := bytes.Clone(large)
		b[i] ^= 1
		return b
	}
	truncated, err := faults.Apply(faults.Truncate, data, "json")
	if err != nil {
		t.Fatal(err)
	}
	sentinel := &profile.Profile{App: "handed-off"}
	for _, tc := range []struct {
		name        string
		prior, disk []byte
		reused      bool
	}{
		{"identical", data, data, true},
		{"identical, larger than the buffer", large, large, true},
		{"first byte flipped", large, flip(0), false},
		{"byte before a buffer boundary flipped", large, flip(compareBufSize - 1), false},
		{"byte after a buffer boundary flipped", large, flip(compareBufSize), false},
		{"last byte flipped", large, flip(len(large) - 1), false},
		{"one byte appended", large, append(bytes.Clone(large), ' '), false},
		{"one byte removed", large, large[:len(large)-1], false},
		{"ends at a buffer boundary", large, large[:compareBufSize], false},
		{"one buffer more on disk", large[:compareBufSize], large, false},
		{"truncated document on disk", data, truncated, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeSegment(dir, segmentName(1), []upload{{name: doc.name, data: tc.disk}}); err != nil {
				t.Fatal(err)
			}
			handed := []upload{{name: doc.name, data: tc.prior, profile: sentinel}}
			files := loadSpool(t, dir, 1, map[string][]upload{segmentName(1): handed})
			if len(files) != 1 || files[0].Path != filepath.Join(dir, doc.name) {
				t.Fatalf("loaded %+v, want one entry at %s", files, filepath.Join(dir, doc.name))
			}
			f := files[0]
			if tc.reused {
				if !f.Reused || f.Profile != sentinel || f.Err != nil {
					t.Fatalf("reused=%v err=%v, want the handed-off profile", f.Reused, f.Err)
				}
				return
			}
			if f.Reused || f.Profile == sentinel {
				t.Fatal("reused the handed-off profile for changed bytes")
			}
			if got := entryBytes(t, filepath.Join(dir, segmentName(1)), handed[0]); !bytes.Equal(got, tc.disk) {
				t.Fatalf("read %d entry bytes that differ from the %d on disk", len(got), len(tc.disk))
			}
			p, stage, err := ingest.DecodeBytes(tc.disk, "json")
			if f.Stage != stage || (f.Err == nil) != (err == nil) || (f.Profile == nil) != (p == nil) {
				t.Fatalf("stage=%v err=%v profile=%v, want a plain decode's stage=%v err=%v profile=%v",
					f.Stage, f.Err, f.Profile != nil, stage, err, p != nil)
			}
			if err != nil && f.Err.Error() != err.Error() {
				t.Errorf("error %q, want the plain decode's %q", f.Err, err)
			}
			if p != nil && !reflect.DeepEqual(f.Profile, p) {
				t.Error("profile differs from a plain decode of the entry")
			}
		})
	}

	t.Run("segment cut inside the entry", func(t *testing.T) {
		dir := t.TempDir()
		seg := filepath.Join(dir, segmentName(1))
		if err := writeSegment(dir, segmentName(1), []upload{{name: doc.name, data: large}}); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, 512+compareBufSize+1); err != nil {
			t.Fatal(err)
		}
		handed := []upload{{name: doc.name, data: large, profile: sentinel}}
		files := loadSpool(t, dir, 1, map[string][]upload{segmentName(1): handed})
		if len(files) != 1 || files[0].Path != seg || files[0].Stage != ingest.StageRead || files[0].Err == nil || files[0].Reused {
			t.Fatalf("loaded %+v, want one read-stage failure naming %s", files, seg)
		}
	})
}

// entryBytes reads the first entry of the segment at path as a campaign
// does with want handed off, and returns what the campaign decodes.
func entryBytes(tb testing.TB, path string, want upload) []byte {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		tb.Fatal(err)
	}
	entries, err := indexSegment(f, st.Size())
	if err != nil || len(entries) != 1 {
		tb.Fatalf("indexed %d entries, err %v; want one", len(entries), err)
	}
	data, same, err := readEntry(f, entries[0].off, entries[0].size, &want, make([]byte, compareBufSize))
	if err != nil || same {
		tb.Fatalf("same=%v err=%v, want the entry's bytes", same, err)
	}
	return data
}

// TestSpoolLoaderReusesHandoff: a campaign over a segment with its
// decode handoff reuses a profile for every entry whose bytes equal the
// handed-off ones and decodes the rest, here one stale entry whose
// handed-off profile is deliberately wrong. The run's profiles, counters
// and report equal a batch run over the same documents as files.
func TestSpoolLoaderReusesHandoff(t *testing.T) {
	batch := testBatch(t, []int{2, 4, 6, 8, 10}, 2, 3)
	spool, plainDir := t.TempDir(), t.TempDir()
	for _, u := range batch {
		if err := os.WriteFile(filepath.Join(plainDir, u.name), u.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeSegment(spool, segmentName(1), batch); err != nil {
		t.Fatal(err)
	}
	handed := append([]upload(nil), batch...)
	handed[3].data = append([]byte(" "), handed[3].data...)
	handed[3].profile = batch[0].profile

	b, err := engine.ByName("imdb")
	if err != nil {
		t.Fatal(err)
	}
	spec := pipeline.RunSpec{
		Format:  "json",
		Ingest:  ingest.Options{Policy: ingest.Lenient},
		Setup:   engine.SetupFunc(b, parallel.DataParallel{}, true),
		Analyze: pipeline.AnalyzeOptions{CoresPerRank: 1, TopKernels: 10},
	}
	spec.ProfilesDir = plainDir
	plain, err := pipeline.New(pipeline.Config{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var obs pipeline.Collector
	spec.ProfilesDir = spool
	spec.Load = spoolLoader(spool, "json", 2, map[string][]upload{segmentName(1): handed})
	res, err := pipeline.New(pipeline.Config{Workers: 2, Observer: &obs}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var counters pipeline.Counters
	for _, st := range obs.Stats() {
		if st.Stage == pipeline.StageIngest {
			counters = st.Counters
		}
	}
	if counters["reused"] != len(batch)-1 || counters["loaded"] != len(batch) {
		t.Errorf("ingest counters %v, want reused=%d loaded=%d", counters, len(batch)-1, len(batch))
	}
	if !reflect.DeepEqual(res.Ingest.Profiles, plain.Ingest.Profiles) {
		t.Error("handoff changed the ingested profiles")
	}
	if res.Report != plain.Report {
		t.Error("handoff changed the report")
	}
}

// TestSpoolLoaderTruncatedSegment: a segment cut short — inside an
// entry, exactly at an entry boundary, or in or before its closing zero
// blocks — yields every entry before the cut, plus one read-stage
// failure naming the segment, in name order with the documents of an
// intact segment and a loose file beside it.
func TestSpoolLoaderTruncatedSegment(t *testing.T) {
	batch := testBatch(t, []int{2, 4, 6}, 2, 5)
	first, second := batch[:3], batch[3:]
	intact := t.TempDir()
	if err := writeSegment(intact, segmentName(1), first); err != nil {
		t.Fatal(err)
	}
	entries, err := indexSegmentFile(filepath.Join(intact, segmentName(1)))
	if err != nil || len(entries) != len(first) {
		t.Fatalf("indexed %d entries, err %v; want %d", len(entries), err, len(first))
	}
	// end is where entry i's data, padded to whole blocks, ends.
	end := func(i int) int64 { return entries[i].off + (entries[i].size+tarBlock-1)/tarBlock*tarBlock }

	for _, tc := range []struct {
		name string
		cut  int64
		keep int
	}{
		{"inside an entry", entries[1].off + entries[1].size/2, 1},
		{"inside a header", end(0) + tarBlock/2, 1},
		{"at an entry boundary", end(0), 1},
		{"before the end-of-archive marker", end(2), 3},
		{"inside the end-of-archive marker", end(2) + tarBlock, 3},
		{"empty", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeSegment(dir, segmentName(1), first); err != nil {
				t.Fatal(err)
			}
			if err := writeSegment(dir, segmentName(2), second[:len(second)-1]); err != nil {
				t.Fatal(err)
			}
			loose := second[len(second)-1]
			if err := os.WriteFile(filepath.Join(dir, loose.name), loose.data, 0o644); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, segmentName(1))
			if err := os.Truncate(seg, tc.cut); err != nil {
				t.Fatal(err)
			}
			want := []string{seg}
			for _, u := range first[:tc.keep] {
				want = append(want, u.name)
			}
			for _, u := range second {
				want = append(want, u.name)
			}
			sort.Strings(want[1:])

			for _, workers := range []int{1, 4} {
				files := loadSpool(t, dir, workers, nil)
				var got []string
				for _, f := range files {
					if f.Path == seg {
						if f.Stage != ingest.StageRead || f.Err == nil {
							t.Errorf("workers=%d: segment load stage=%v err=%v, want a read failure", workers, f.Stage, f.Err)
						}
						got = append(got, f.Path)
						continue
					}
					if f.Err != nil || f.Profile == nil || f.Reused {
						t.Errorf("workers=%d: %s: err=%v reused=%v, want a decoded profile", workers, f.Path, f.Err, f.Reused)
					}
					got = append(got, filepath.Base(f.Path))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: loaded %q, want %q", workers, got, want)
				}
			}
		})
	}
}

// smallSegmentSpool spools batch as one segment per document, and
// returns the directory with a handoff for every other segment.
func smallSegmentSpool(tb testing.TB, batch []upload) (string, map[string][]upload) {
	tb.Helper()
	dir := tb.TempDir()
	handoff := map[string][]upload{}
	for i := range batch {
		name := segmentName(i + 1)
		if err := writeSegment(dir, name, batch[i:i+1]); err != nil {
			tb.Fatal(err)
		}
		if i%2 == 0 {
			handoff[name] = batch[i : i+1]
		}
	}
	return dir, handoff
}

// TestSpoolLoaderSmallSegments: a spool of one-document segments, half
// of them handed off, loads the same documents under every worker
// count: each in name order under its own path, reused exactly where
// handed off, and decoded to the handed-off profile otherwise.
func TestSpoolLoaderSmallSegments(t *testing.T) {
	batch := testBatch(t, []int{2, 4, 6, 8, 10}, 2, 7)
	dir, handoff := smallSegmentSpool(t, batch)
	for _, workers := range []int{1, 2, 4} {
		files := loadSpool(t, dir, workers, handoff)
		if len(files) != len(batch) {
			t.Fatalf("workers=%d: loaded %d files, want %d", workers, len(files), len(batch))
		}
		for i, f := range files {
			u := batch[i]
			_, handed := handoff[segmentName(i+1)]
			if f.Path != filepath.Join(dir, u.name) || f.Err != nil || f.Reused != handed {
				t.Errorf("workers=%d: file %d: path %s err %v reused %v; want %s, reused %v", workers, i, f.Path, f.Err, f.Reused, u.name, handed)
			}
			if !reflect.DeepEqual(f.Profile, u.profile) {
				t.Errorf("workers=%d: %s: profile differs from the upload's decode", workers, u.name)
			}
		}
	}
}

// BenchmarkSpoolLoader times one campaign's ingest hook over a spool
// restarted without a handoff, holding the 90 documents of a 5-rank,
// 5-repetition campaign as one segment or as one segment per document.
func BenchmarkSpoolLoader(b *testing.B) {
	batch := testBatch(b, []int{2, 4, 6, 8, 10}, 5, 3)
	one := b.TempDir()
	if err := writeSegment(one, segmentName(1), batch); err != nil {
		b.Fatal(err)
	}
	small, _ := smallSegmentSpool(b, batch)
	for _, tc := range []struct{ name, dir string }{{"segments=1", one}, {"segments=per-document", small}} {
		b.Run(tc.name, func(b *testing.B) {
			load := spoolLoader(tc.dir, "json", runtime.GOMAXPROCS(0), nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := load(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
