package serve_test

// The spool-format suite: an accepted upload is one tar segment holding
// its documents verbatim, equal batches spool equal bytes, segment
// numbering survives a restart, and a damaged segment costs only the
// entries after the damage.

import (
	"archive/tar"
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"extradeep/internal/serve"
)

// sortedNames returns a campaign's file names in name order, the order
// contentsOf uploads them in.
func sortedNames(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// appDirFiles lists every file name in an application's spool
// directory.
func appDirFiles(tb testing.TB, dir string) []string {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// wantSegment checks that the segment at path holds exactly the named
// documents of files, in that order, byte for byte.
func wantSegment(tb testing.TB, path string, names []string, files map[string]string) []segmentEntry {
	tb.Helper()
	entries := segmentEntries(tb, path)
	if len(entries) != len(names) {
		tb.Fatalf("segment %s holds %d entries, want %d", path, len(entries), len(names))
	}
	for i, e := range entries {
		if e.name != names[i] {
			tb.Errorf("entry %d is %s, want %s", i, e.name, names[i])
		}
		if string(e.data) != files[names[i]] {
			tb.Errorf("entry %s differs from the uploaded document", e.name)
		}
		if e.hdr.Typeflag != tar.TypeReg || !e.hdr.ModTime.Equal(time.Unix(0, 0)) || e.hdr.Uid != 0 || e.hdr.Gid != 0 {
			tb.Errorf("entry %s: type %q, mtime %v, uid %d, gid %d; want a regular file with zero mtime and owner",
				e.name, e.hdr.Typeflag, e.hdr.ModTime, e.hdr.Uid, e.hdr.Gid)
		}
	}
	return entries
}

// TestServeSpoolOneSegmentPerUpload: an N-document upload leaves exactly
// one file in the application's spool directory, a tar segment whose
// entries are the batch's documents, in upload order, byte for byte.
func TestServeSpoolOneSegmentPerUpload(t *testing.T) {
	files := makeCampaign(t, defaultRanks, 2, 61)
	s := startServer(t, serve.Config{})
	s.mustUpload(t, testApp, contentsOf(files))
	dir := filepath.Join(s.spool, testApp)
	got := appDirFiles(t, dir)
	if len(got) != 1 || !strings.HasSuffix(got[0], ".tar") {
		t.Fatalf("spool directory holds %q after one upload, want one .tar segment", got)
	}
	wantSegment(t, filepath.Join(dir, got[0]), sortedNames(files), files)
	if n := appFiles(t, s, testApp); n != len(files) {
		t.Errorf("status reports %d spooled files, want %d", n, len(files))
	}
}

// TestServeSpoolSegmentsByteIdentical: the same batch uploaded to two
// servers spools byte-identical segments under the same name.
func TestServeSpoolSegmentsByteIdentical(t *testing.T) {
	files := makeCampaign(t, defaultRanks, 1, 67)
	var segs [][]byte
	var names []string
	for i := 0; i < 2; i++ {
		s := startServer(t, serve.Config{})
		s.mustUpload(t, testApp, contentsOf(files))
		dir := filepath.Join(s.spool, testApp)
		got := appDirFiles(t, dir)
		if len(got) != 1 {
			t.Fatalf("server %d spooled %q, want one segment", i, got)
		}
		data, err := os.ReadFile(filepath.Join(dir, got[0]))
		if err != nil {
			t.Fatal(err)
		}
		segs, names = append(segs, data), append(names, got[0])
	}
	if names[0] != names[1] || !bytes.Equal(segs[0], segs[1]) {
		t.Errorf("segments differ: %s (%d bytes) and %s (%d bytes)", names[0], len(segs[0]), names[1], len(segs[1]))
	}
}

// TestServeSpoolLongAppName: a 128-byte application name, the longest
// accepted, gives canonical file names too long for a USTAR header; the
// segment stores them in PAX headers, a restart scan reads them back, and
// the models equal the batch pipeline's over the unpacked spool.
func TestServeSpoolLongAppName(t *testing.T) {
	app := "i" + strings.Repeat("m", 126) + "b"
	if len(app) != 128 {
		t.Fatalf("fixture: app name is %d bytes", len(app))
	}
	files := renameApp(t, makeCampaign(t, defaultRanks, 1, 71), app)
	spool := t.TempDir()
	first := startServer(t, serve.Config{SpoolDir: spool})
	first.mustUpload(t, app, contentsOf(files))
	first.settle(t, app)
	want := first.models(t, app)
	dir := filepath.Join(spool, app)
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("spooled %q, want one segment", segs)
	}
	for _, e := range wantSegment(t, filepath.Join(dir, segs[0]), sortedNames(files), files) {
		if e.hdr.Format&tar.FormatPAX == 0 {
			t.Errorf("entry %s (%d-byte name) has header format %v, want PAX", e.name, len(e.name), e.hdr.Format)
		}
	}
	if !bytes.Equal(want, batchModels(t, unpackSpool(t, dir), 1)) {
		t.Error("models differ from the batch pipeline over the unpacked spool")
	}
	first.stop()
	drain(t, first)

	second := startServer(t, serve.Config{SpoolDir: spool})
	if n := appFiles(t, second, app); n != len(files) {
		t.Errorf("restart scan counts %d files, want %d", n, len(files))
	}
	second.settle(t, app)
	if !bytes.Equal(second.models(t, app), want) {
		t.Error("restarted server's models differ from the first server's")
	}
}

// drain stops a harness server's fit loops and waits for them.
func drain(tb testing.TB, s *testServer) {
	tb.Helper()
	s.stop()
	ctx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := s.srv.Drain(ctx); err != nil {
		tb.Fatal(err)
	}
}

// TestServeSpoolUploadRestartUpload: an upload, a restart and a second
// upload give two segments with distinct names; the restart scan counts
// the first, the second upload's response counts both, a duplicate of a
// document in the first segment is still refused, and the models equal
// the batch pipeline's over the unpacked spool.
func TestServeSpoolUploadRestartUpload(t *testing.T) {
	files := makeCampaign(t, defaultRanks, 2, 73)
	reps := [2]map[string]string{{}, {}}
	for name, content := range files {
		i := 0
		if strings.Contains(name, ".r2.") {
			i = 1
		}
		reps[i][name] = content
	}
	spool := t.TempDir()
	first := startServer(t, serve.Config{SpoolDir: spool})
	first.mustUpload(t, testApp, contentsOf(reps[0]))
	first.settle(t, testApp)
	drain(t, first)

	second := startServer(t, serve.Config{SpoolDir: spool})
	if n := appFiles(t, second, testApp); n != len(reps[0]) {
		t.Fatalf("restart scan counts %d files, want %d", n, len(reps[0]))
	}
	status, body := second.upload(t, testApp, "json", contentsOf(reps[0])[:1])
	if status != http.StatusConflict {
		t.Errorf("re-upload of a spooled document: status %d, want 409; body %s", status, body)
	}
	status, body = second.upload(t, testApp, "json", contentsOf(reps[1]))
	if status != http.StatusAccepted {
		t.Fatalf("second upload: status %d, body %s", status, body)
	}
	var resp struct {
		SpooledFiles int `json:"spooled_files"`
	}
	decodeJSON(t, body, &resp)
	if resp.SpooledFiles != len(files) {
		t.Errorf("second upload reports %d spooled files, want %d", resp.SpooledFiles, len(files))
	}
	snap := second.settle(t, testApp)
	if snap.Profiles != len(files) {
		t.Errorf("campaign fitted %d profiles, want %d", snap.Profiles, len(files))
	}

	dir := filepath.Join(spool, testApp)
	segs := segments(t, dir)
	if len(segs) != 2 || segs[0] == segs[1] {
		t.Fatalf("spool segments %q, want two distinct", segs)
	}
	wantSegment(t, filepath.Join(dir, segs[0]), sortedNames(reps[0]), files)
	wantSegment(t, filepath.Join(dir, segs[1]), sortedNames(reps[1]), files)
	if !bytes.Equal(second.models(t, testApp), batchModels(t, unpackSpool(t, dir), 1)) {
		t.Error("models differ from the batch pipeline over the unpacked spool")
	}
}

// TestServeSpoolTruncatedSegment: a segment cut short inside its last
// entry still yields every entry before the cut. A restarted server
// counts and fits those, quarantines the break, and its models equal the
// batch pipeline's over the surviving documents.
func TestServeSpoolTruncatedSegment(t *testing.T) {
	files := makeCampaign(t, defaultRanks, 2, 79)
	names := sortedNames(files)
	spool := t.TempDir()
	first := startServer(t, serve.Config{SpoolDir: spool})
	first.mustUpload(t, testApp, contentsOf(files))
	first.settle(t, testApp)
	drain(t, first)

	dir := filepath.Join(spool, testApp)
	seg := filepath.Join(dir, segments(t, dir)[0])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	last := names[len(names)-1]
	at := bytes.LastIndex(data, []byte(files[last]))
	if at < 0 {
		t.Fatal("fixture: last document not found in the segment")
	}
	if err := os.Truncate(seg, int64(at+len(files[last])/2)); err != nil {
		t.Fatal(err)
	}

	second := startServer(t, serve.Config{SpoolDir: spool})
	if n := appFiles(t, second, testApp); n != len(files)-1 {
		t.Errorf("restart scan counts %d files, want %d", n, len(files)-1)
	}
	snap := second.settle(t, testApp)
	if snap.Profiles != len(files)-1 || snap.Quarantined != 1 {
		t.Errorf("snapshot: %d profiles, %d quarantined; want %d and 1", snap.Profiles, snap.Quarantined, len(files)-1)
	}
	survivors := make(map[string]string, len(files)-1)
	for _, n := range names[:len(names)-1] {
		survivors[n] = files[n]
	}
	if !bytes.Equal(second.models(t, testApp), batchModels(t, writeProfilesDir(t, survivors), 1)) {
		t.Error("models differ from the batch pipeline over the entries before the cut")
	}
}

// TestServeUploadBeforeStartRefusesSpooled: New adopts the spool, so an
// upload accepted before Start is refused as a duplicate of a document
// already spooled, in a segment or as a loose file, and leaves the spool
// as it was; a fresh document is accepted, and once started the server's
// models equal the batch pipeline's over the unpacked spool.
func TestServeUploadBeforeStartRefusesSpooled(t *testing.T) {
	files := makeCampaign(t, defaultRanks, 2, 83)
	reps := [2]map[string]string{{}, {}}
	for name, content := range files {
		i := 0
		if strings.Contains(name, ".r2.") {
			i = 1
		}
		reps[i][name] = content
	}
	spool := t.TempDir()
	first := startServer(t, serve.Config{SpoolDir: spool})
	first.mustUpload(t, testApp, contentsOf(reps[0]))
	first.settle(t, testApp)
	drain(t, first)
	dir := filepath.Join(spool, testApp)
	spooled, loose := sortedNames(reps[0])[0], sortedNames(reps[1])[0]
	if err := os.WriteFile(filepath.Join(dir, loose), []byte(files[loose]), 0o644); err != nil {
		t.Fatal(err)
	}
	delete(reps[1], loose)

	second := newServer(t, serve.Config{SpoolDir: spool})
	for _, name := range []string{spooled, loose} {
		status, body := second.upload(t, testApp, "json", []string{files[name]})
		if status != http.StatusConflict {
			t.Errorf("pre-Start re-upload of spooled %s: status %d, want 409; body %s", name, status, body)
		}
	}
	if segs := segments(t, dir); len(segs) != 1 {
		t.Fatalf("refused uploads left segments %q, want the first only", segs)
	}
	second.mustUpload(t, testApp, contentsOf(reps[1]))
	second.start(t)
	snap := second.settle(t, testApp)
	if snap.Profiles != len(files) || snap.Quarantined != 0 {
		t.Errorf("snapshot: %d profiles, %d quarantined; want %d and 0", snap.Profiles, snap.Quarantined, len(files))
	}
	if !bytes.Equal(second.models(t, testApp), batchModels(t, unpackSpool(t, dir), 1)) {
		t.Error("models differ from the batch pipeline over the unpacked spool")
	}
}
