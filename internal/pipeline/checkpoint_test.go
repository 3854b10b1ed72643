package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"extradeep/internal/aggregate"
	"extradeep/internal/epoch"
	"extradeep/internal/ingest"
	"extradeep/internal/measurement"
	"extradeep/internal/pmnf"
	"extradeep/internal/propcheck"
	"extradeep/internal/resilience"
)

// envelope wraps payload in a valid record-file envelope, so a test can
// reach the record decoder with a payload encodeRecord would never
// write.
func envelope(payload string) []byte {
	sum := sha256.Sum256([]byte(payload))
	return []byte(ckptMagic + "\n" + hex.EncodeToString(sum[:]) + "\n" + payload)
}

// testSaved returns a small fitted model in its serialized form.
func testSaved() *SavedModel {
	r2 := 0.97
	return &SavedModel{
		Function: &pmnf.Function{
			Constant:   1.5,
			Terms:      []pmnf.Term{{Coefficient: 0.25, Factors: []pmnf.Factor{{Param: 0, PolyExp: 2.0 / 3, LogExp: 1}}}},
			ParamNames: []string{"p"},
		},
		SMAPE:          2.5,
		RSS:            0.125,
		R2:             &r2,
		RelResidualStd: 0.01,
		Points:         []measurement.Point{{2}, {4}, {8}},
		Actual:         []float64{1.75, 2.1, 2.6},
	}
}

// testRecords returns a fitted and a skipped record under distinct keys.
func testRecords() []ckptRecord {
	return []ckptRecord{
		{Key: contentKey([]byte("t1")), Name: "kernel time kern/a", Status: "fitted", Model: testSaved()},
		{Key: contentKey([]byte("t2")), Name: "kernel time kern/b", Status: "skipped", Class: FailurePanic, Reason: "injected"},
	}
}

func mustEncode(t testing.TB, rec ckptRecord) []byte {
	t.Helper()
	data, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEnvelopeRoundTrip: a fitted and a skipped record decode to
// themselves under their own key, and re-encode byte-identically.
func TestEnvelopeRoundTrip(t *testing.T) {
	for _, rec := range testRecords() {
		enc := mustEncode(t, rec)
		got, err := decodeRecord(enc, rec.Key)
		if err != nil {
			t.Fatalf("%s: %v", rec.Status, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("%s record decoded as %+v", rec.Status, got)
		}
		if re := mustEncode(t, got); !bytes.Equal(re, enc) {
			t.Fatalf("%s record re-encodes differently:\n%s\n%s", rec.Status, enc, re)
		}
	}
}

// TestEnvelopeDetectsDamage: every truncation and every single bit flip
// of a record file fails the decode; none decodes to a wrong record.
func TestEnvelopeDetectsDamage(t *testing.T) {
	for _, rec := range testRecords() {
		enc := mustEncode(t, rec)
		for n := 0; n < len(enc); n++ {
			if _, err := decodeRecord(enc[:n], rec.Key); err == nil {
				t.Fatalf("%s record truncated to %d bytes decoded", rec.Status, n)
			}
		}
		for i := range enc {
			if _, err := decodeRecord(flipBit(enc, i), rec.Key); err == nil {
				t.Fatalf("%s record with a bit flipped at byte %d decoded", rec.Status, i)
			}
		}
	}
}

func TestKeyIsLengthPrefixed(t *testing.T) {
	if contentKey([]byte("ab"), []byte("c")) == contentKey([]byte("a"), []byte("bc")) {
		t.Fatal("part boundaries do not affect the key")
	}
	if contentKey([]byte("x")) != contentKey([]byte("x")) {
		t.Fatal("key not deterministic")
	}
}

// TestDecodeStateValidates: the record decoder accepts exactly the
// well-formed fitted and skipped records of the key it reads, and
// rejects every other payload inside a valid envelope.
func TestDecodeStateValidates(t *testing.T) {
	const key = "k"
	for name, payload := range map[string]string{
		"not json":             `not json`,
		"null":                 `null`,
		"empty key":            `{"key":"","name":"t0","status":"skipped"}`,
		"missing key":          `{"name":"t0","status":"skipped"}`,
		"other key":            `{"key":"k2","name":"t0","status":"skipped"}`,
		"bad status":           `{"key":"k","name":"t0","status":"maybe"}`,
		"no status":            `{"key":"k","name":"t0"}`,
		"unknown field":        `{"key":"k","name":"t0","status":"skipped","version":1}`,
		"wrong type":           `{"key":"k","name":"t0","status":"skipped","class":7}`,
		"fitted without model": `{"key":"k","name":"t0","status":"fitted"}`,
		"model without func":   `{"key":"k","name":"t0","status":"fitted","model":{"function":null}}`,
		"model not an object":  `{"key":"k","name":"t0","status":"fitted","model":"m"}`,
		"unknown model field":  `{"key":"k","name":"t0","status":"fitted","model":{"function":{},"extra":1}}`,
		"skipped with model":   `{"key":"k","name":"t0","status":"skipped","model":{"function":{}}}`,
		"v1 payload field":     `{"key":"k","name":"t0","status":"fitted","payload":"e30="}`,
	} {
		if rec, err := decodeRecord(envelope(payload), key); err == nil {
			t.Errorf("%s: decoded as %+v", name, rec)
		}
	}
	for _, payload := range []string{
		`{"key":"k","name":"t0","status":"skipped","class":"panic","reason":"boom"}`,
		`{"key":"k","name":"t0","status":"fitted","model":{"function":{}}}`,
	} {
		if _, err := decodeRecord(envelope(payload), key); err != nil {
			t.Errorf("%s: %v", payload, err)
		}
	}
}

// TestSaveLoadState: a record the plan writes reads back through reuse
// under its task's key, only when resuming; a missing record, a record
// of another key and a record overwritten in place behave as a cache
// should, and the directory only ever holds record files. A nil plan
// reuses and records nothing.
func TestSaveLoadState(t *testing.T) {
	recs := testRecords()
	dir := filepath.Join(t.TempDir(), "ckpt")
	plan := &ckptPlan{dir: dir, keys: []string{recs[0].Key, recs[1].Key, contentKey([]byte("absent"))}, resume: true}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		plan.record(i, ckptRecord{Name: rec.Name, Status: rec.Status, Class: rec.Class, Reason: rec.Reason, Model: rec.Model})
	}
	for i, rec := range recs {
		if got, ok := plan.reuse(i); !ok || !reflect.DeepEqual(got, rec) {
			t.Fatalf("reuse(%d) = %+v, %v; want %+v", i, got, ok, rec)
		}
	}
	if _, ok := plan.reuse(2); ok {
		t.Fatal("absent record hit")
	}
	fresh := &ckptPlan{dir: dir, keys: plan.keys}
	if _, ok := fresh.reuse(0); ok {
		t.Fatal("a plan that does not resume reused a record")
	}

	// Task 0's record copied under task 1's key is a miss for task 1.
	if err := os.WriteFile(plan.path(1), mustEncode(t, recs[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.reuse(1); ok {
		t.Fatal("record stored under a mismatched key loaded")
	}
	// A rewrite replaces the record in place, whatever the file held.
	plan.record(1, ckptRecord{Name: recs[1].Name, Status: "skipped", Class: FailureDegraded, Reason: "again"})
	if got, ok := plan.reuse(1); !ok || got.Class != FailureDegraded || got.Reason != "again" {
		t.Fatalf("rewritten record read back as %+v, %v", got, ok)
	}
	assertOnlyRecords(t, dir)

	var none *ckptPlan
	none.record(0, recs[0])
	if _, ok := none.reuse(0); ok {
		t.Fatal("nil plan reused a record")
	}
}

// assertOnlyRecords fails unless every entry of dir is a <key>.ckpt
// record file.
func assertOnlyRecords(t testing.TB, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), ".ckpt")
		if !ok || !e.Type().IsRegular() || len(key) != hex.EncodedLen(sha256.Size) {
			t.Fatalf("unexpected entry %s in the checkpoint directory", e.Name())
		}
	}
}

// genRecord generates arbitrary well-formed task records.
func genRecord() propcheck.Gen[ckptRecord] {
	return propcheck.Gen[ckptRecord]{
		Generate: func(r *propcheck.Rand) ckptRecord {
			rec := ckptRecord{
				Key:  contentKey([]byte(strconv.FormatInt(r.Int64Range(0, 1<<50), 10))),
				Name: fmt.Sprintf("kernel time kern/%d", r.Intn(100)),
			}
			if r.Bool() {
				rec.Status = "fitted"
				rec.Model = testSaved()
				rec.Model.Function.Constant = r.NormFloat64()
				rec.Model.SMAPE = r.Float64Range(0, 200)
				if r.Bool() {
					rec.Model.R2 = nil
				}
				for i := range rec.Model.Actual {
					rec.Model.Actual[i] = r.Float64Range(-1e9, 1e9)
				}
			} else {
				rec.Status = "skipped"
				rec.Class = []string{FailurePanic, FailureDegraded, FailureUnmodelable}[r.Intn(3)]
				rec.Reason = "injected failure"
			}
			return rec
		},
		Describe: func(rec ckptRecord) string {
			return fmt.Sprintf("key=%s status=%s", rec.Key, rec.Status)
		},
	}
}

// TestPropCheckpointRoundTrip: encode → decode → encode is
// byte-identical for arbitrary task records, a written record reads
// back through the plan, and a truncated or bit-flipped record file is
// always a miss, never a partial resume.
func TestPropCheckpointRoundTrip(t *testing.T) {
	propcheck.Check(t, genRecord(), func(rec ckptRecord) error {
		enc1, err := encodeRecord(rec)
		if err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		dec, err := decodeRecord(enc1, rec.Key)
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		enc2, err := encodeRecord(dec)
		if err != nil {
			return fmt.Errorf("re-encode: %w", err)
		}
		if !bytes.Equal(enc1, enc2) {
			return fmt.Errorf("encode→decode→encode not byte-identical")
		}
		plan := &ckptPlan{dir: t.TempDir(), keys: []string{rec.Key}, resume: true}
		plan.record(0, rec)
		if got, ok := plan.reuse(0); !ok || !reflect.DeepEqual(got, dec) {
			return fmt.Errorf("stored record read back as %+v, %v", got, ok)
		}
		// Damage detection: truncate the record file at a third and
		// two-thirds, flip one payload bit; all three must be a miss.
		for i, damage := range [][]byte{
			enc1[:len(enc1)/3],
			enc1[:2*len(enc1)/3],
			flipBit(enc1, len(enc1)-1),
		} {
			if err := os.WriteFile(plan.path(0), damage, 0o644); err != nil {
				return err
			}
			if _, ok := plan.reuse(0); ok {
				return fmt.Errorf("damaged record %d loaded", i)
			}
		}
		return nil
	})
}

func flipBit(b []byte, i int) []byte {
	out := bytes.Clone(b)
	out[i] ^= 0x10
	return out
}

// crash is one way a record write can be lost: the file cut at a byte,
// its tail zeroed from a byte, or a 512-byte block zeroed (an unsynced
// sector) at a byte, with at counted modulo the file's length.
type crash struct {
	record int // index into the sorted record files
	kind   int // 0 truncate, 1 zero tail, 2 zero block
	at     int
}

func (c crash) String() string {
	return fmt.Sprintf("record %d %s at %d", c.record, []string{"truncated", "tail zeroed", "512-byte block zeroed"}[c.kind], c.at)
}

// apply damages a copy of data.
func (c crash) apply(data []byte) []byte {
	at := c.at % len(data)
	out := bytes.Clone(data)
	switch c.kind {
	case 0:
		return out[:at]
	case 1:
		clear(out[at:])
	default:
		clear(out[at:min(at+512, len(out))])
	}
	return out
}

// crashConfig is the crash suite's pipeline configuration. A degraded
// fault quarantines fit task 3 in every run, so the directory holds a
// skipped record beside the fitted ones, and a refit of that task skips
// it again.
func crashConfig(dir string, resume bool, obs Observer) Config {
	return Config{
		Workers:       4,
		CheckpointDir: dir,
		Resume:        resume,
		Observer:      obs,
		Injector: resilience.NewInjector(nil,
			resilience.Fault{Point: fitTaskPoint(3), Kind: resilience.KindError, Class: resilience.ClassDegraded}),
	}
}

// checkpointedCampaign runs a cold BuildModels over the test campaign,
// checkpointing into a fresh directory, and returns its aggregates and
// setup, the cold run's encoded models, and the record files it wrote,
// sorted by name.
func checkpointedCampaign(t *testing.T) ([]*aggregate.ConfigAggregate, epoch.SetupFunc, []byte, []string) {
	t.Helper()
	dir, setup := writeCampaign(t)
	rep, err := ingest.LoadDir(dir, "json", ingest.Options{Policy: ingest.Strict})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	aggs, err := New(Config{}).Aggregate(ctx, rep.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := t.TempDir()
	cold, err := New(crashConfig(ckpt, false, nil)).BuildModels(ctx, aggs, setup)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(ckpt, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return aggs, setup, encodeModelSet(t, cold), paths
}

// encodeModelSet serializes every model and skip of a model set, for
// byte comparison.
func encodeModelSet(t testing.TB, ms *ModelSet) []byte {
	t.Helper()
	saved := struct {
		App     map[string]SavedModel
		Kernel  map[measurement.Metric]map[string]SavedModel
		Skipped []FitFailure
	}{App: map[string]SavedModel{}, Kernel: map[measurement.Metric]map[string]SavedModel{}, Skipped: ms.Skipped}
	for path, m := range ms.App {
		saved.App[path] = SaveModel(m)
	}
	for metric, byPath := range ms.Kernel {
		saved.Kernel[metric] = map[string]SavedModel{}
		for path, m := range byPath {
			saved.Kernel[metric][path] = SaveModel(m)
		}
	}
	data, err := json.Marshal(saved)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPropCheckpointCrashConsistency: the checkpoint directory is a
// verified cache under crashes. A fitted or a skipped record file cut at
// any length, with its tail zeroed or with a 512-byte block zeroed reads
// as a miss; a resumed BuildModels over a directory with one record
// damaged that way refits exactly that task, rewrites its record, and is
// byte-identical to a cold run; and the directory afterwards holds only
// record files.
func TestPropCheckpointCrashConsistency(t *testing.T) {
	aggs, setup, cold, paths := checkpointedCampaign(t)
	files := make([][]byte, len(paths))
	var fitted, skipped []int
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
		if bytes.Contains(data, []byte(`"status":"skipped"`)) {
			skipped = append(skipped, i)
		} else {
			fitted = append(fitted, i)
		}
	}
	if len(fitted) == 0 || len(skipped) == 0 {
		t.Fatalf("campaign wrote %d fitted and %d skipped records, want both kinds", len(fitted), len(skipped))
	}
	// Every truncation length of one record of each kind is a miss.
	for _, i := range []int{fitted[0], skipped[0]} {
		key := strings.TrimSuffix(filepath.Base(paths[i]), ".ckpt")
		for n := range files[i] {
			if _, err := decodeRecord(files[i][:n], key); err == nil {
				t.Fatalf("record %d truncated to %d bytes decoded", i, n)
			}
		}
	}

	gen := propcheck.Gen[crash]{
		Generate: func(r *propcheck.Rand) crash {
			kind := fitted
			if r.Bool() {
				kind = skipped
			}
			return crash{record: kind[r.Intn(len(kind))], kind: r.Intn(3), at: r.Intn(1 << 20)}
		},
		Describe: crash.String,
	}
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 12}, gen, func(c crash) error {
		key := strings.TrimSuffix(filepath.Base(paths[c.record]), ".ckpt")
		damaged := c.apply(files[c.record])
		if _, err := decodeRecord(damaged, key); err == nil {
			return fmt.Errorf("damaged record decoded")
		}
		dir := t.TempDir()
		for i, data := range files {
			if i == c.record {
				data = damaged
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(paths[i])), data, 0o644); err != nil {
				return err
			}
		}
		col := &Collector{}
		ms, err := New(crashConfig(dir, true, col)).BuildModels(context.Background(), aggs, setup)
		if err != nil {
			return err
		}
		if c := fitCounters(col); c["tasks"] != len(files) || c["reused"] != len(files)-1 {
			return fmt.Errorf("resume reused %d of %d tasks, want all but the damaged one of %d", c["reused"], c["tasks"], len(files))
		}
		if !bytes.Equal(encodeModelSet(t, ms), cold) {
			return fmt.Errorf("resumed models differ from the cold run")
		}
		if rewritten, err := os.ReadFile(filepath.Join(dir, filepath.Base(paths[c.record]))); err != nil || !bytes.Equal(rewritten, files[c.record]) {
			return fmt.Errorf("damaged record not rewritten as the cold run wrote it (err=%v)", err)
		}
		assertOnlyRecords(t, dir)
		return nil
	})
}

// TestCheckpointConcurrentWritersOneKey: several goroutines rewrite one
// task's record while others read it. Every writer writes the same
// bytes, so every read is either a miss (a read racing a write) or
// exactly the record, never a different one.
func TestCheckpointConcurrentWritersOneKey(t *testing.T) {
	rec := testRecords()[0]
	want, err := decodeRecord(mustEncode(t, rec), rec.Key)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plan := &ckptPlan{dir: dir, keys: []string{rec.Key}, resume: true}
	const writers, readers, rounds = 4, 4, 200
	var wg sync.WaitGroup
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				plan.record(0, ckptRecord{Name: rec.Name, Status: rec.Status, Model: rec.Model})
			}
		}()
	}
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if got, ok := plan.reuse(0); ok && !reflect.DeepEqual(got, want) {
					t.Errorf("read %+v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, ok := plan.reuse(0); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("after the writers finished: %+v, %v", got, ok)
	}
	assertOnlyRecords(t, dir)
}

// fuzzKey is the key FuzzCheckpointDecode reads every input under; the
// valid seeds are records of this key.
var fuzzKey = contentKey([]byte("fuzz"))

// FuzzCheckpointDecode asserts the checkpoint loader invariant on
// arbitrary record-file bytes: the decode either returns a fully
// validated record that re-encodes to a fixed point and reads back
// through the plan, or an error — it never panics and never accepts a
// record it cannot reproduce. This is the property that makes damaged
// checkpoints safe: anything damaged is rejected here and the plan turns
// the rejection into a miss.
func FuzzCheckpointDecode(f *testing.F) {
	fitted := mustEncode(f, ckptRecord{Key: fuzzKey, Name: "kernel time kern/a", Status: "fitted", Model: testSaved()})
	f.Add(fitted)
	f.Add(mustEncode(f, ckptRecord{Key: fuzzKey, Name: "kernel time kern/b", Status: "skipped", Class: FailurePanic, Reason: "injected"}))
	f.Add(fitted[:len(fitted)/2])                                               // truncated mid-payload
	f.Add(fitted[:len(ckptMagic)])                                              // magic only
	f.Add([]byte(ckptMagic + "\n"))                                             // no digest line
	f.Add([]byte("edckpt v1\nxx\n{}"))                                          // an older version's magic
	f.Add(envelope("not json"))                                                 // valid envelope, bad payload
	f.Add(envelope(`{"key":"` + fuzzKey + `","status":"fitted"}`))              // fitted without a model
	f.Add(envelope(`{"key":"` + fuzzKey + `","status":"skipped","version":1}`)) // unknown field
	f.Add(bytes.Replace(fitted, []byte("fitted"), []byte("maybes"), 1))         // broken digest
	f.Add(envelope(`{"key":"","status":"skipped"}`))                            // empty key

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data, fuzzKey)
		if err != nil {
			return // rejected input: the other half of the invariant
		}
		// Every accepted record reaches the canonical encoding in one
		// step: encode → decode → encode is byte-identical (the input
		// itself may carry non-canonical JSON).
		re, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record failed to re-encode: %v", err)
		}
		rec2, err := decodeRecord(re, fuzzKey)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		if re2, err := encodeRecord(rec2); err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("canonical encoding is not a fixed point (err=%v):\n in: %q\nout: %q", err, re, re2)
		}
		// The accepted bytes, as the record file of the key, read back
		// through the plan as the same record.
		plan := &ckptPlan{dir: t.TempDir(), keys: []string{fuzzKey}, resume: true}
		if err := os.WriteFile(plan.path(0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := plan.reuse(0); !ok || !reflect.DeepEqual(got, rec) {
			t.Fatalf("record file read back as %+v, %v; want %+v", got, ok, rec)
		}
	})
}

// TestCheckpointSeedClasses pins what the FuzzCheckpointDecode corpus
// seeds exercise: seeds named valid-* decode under the fuzz key, and
// every other seed is rejected — among them v1-record, a well-formed
// record of the previous format, which stays a miss even with its magic
// rewritten to the current one.
func TestCheckpointSeedClasses(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus seeds: %v", err)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a one-[]byte corpus file", name)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data := []byte(s)
		_, err = decodeRecord(data, fuzzKey)
		if valid := strings.HasPrefix(name, "valid-"); valid != (err == nil) {
			t.Errorf("%s: decode err = %v, want valid=%v", name, err, valid)
		}
		if name == "v1-record" {
			head, rest, _ := bytes.Cut(data, []byte{'\n'})
			if string(head) != "edckpt v1" {
				t.Fatalf("v1-record has magic %q", head)
			}
			digest, payload, _ := bytes.Cut(rest, []byte{'\n'})
			if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != string(digest) {
				t.Fatal("v1-record's digest does not match: it no longer shows a well-formed v1 record")
			}
			if _, err := decodeRecord(envelope(string(payload)), fuzzKey); err == nil {
				t.Error("a v1 payload decoded under the current magic")
			}
		}
	}
}
