package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"extradeep/internal/propcheck"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), []byte("hello\nworld\n"), bytes.Repeat([]byte{0}, 4096)} {
		enc := encodeEnvelope(payload)
		got, err := decodeEnvelope(enc)
		if err != nil {
			t.Fatalf("decodeEnvelope: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mutated: %q != %q", got, payload)
		}
	}
}

func TestEnvelopeDetectsDamage(t *testing.T) {
	enc := encodeEnvelope([]byte("the quick brown fox"))
	// Truncation at every prefix length must fail, never mis-decode.
	for n := 0; n < len(enc); n++ {
		if _, err := decodeEnvelope(enc[:n]); !errors.Is(err, errCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want errCorrupt", n, err)
		}
	}
	// A single bit flip anywhere must fail.
	for i := 0; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := decodeEnvelope(bad); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", i)
		}
	}
}

func TestKeyIsLengthPrefixed(t *testing.T) {
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Fatal("part boundaries do not affect the key")
	}
	if Key([]byte("x")) != Key([]byte("x")) {
		t.Fatal("key not deterministic")
	}
}

func TestStorePutGet(t *testing.T) {
	s := &Store{Dir: t.TempDir()}
	key := Key([]byte("task"))
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Overwrite is atomic and last-write-wins.
	if err := s.Put(key, []byte("payload v2")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, _ := s.Get(key); string(got) != "payload v2" {
		t.Fatalf("Get after overwrite = %q", got)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != key+".ckpt" {
			t.Fatalf("unexpected file %s in store dir", e.Name())
		}
	}
}

func TestStoreCorruptRecordIsMiss(t *testing.T) {
	s := &Store{Dir: t.TempDir()}
	key := Key([]byte("task"))
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir, key+".ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt record returned a hit")
	}
}

func TestNilStoreIsNoOp(t *testing.T) {
	var s *Store
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("nil Put: %v", err)
	}
	if err := s.PutTask(TaskRecord{Key: "k", Status: StatusFitted}); err != nil {
		t.Fatalf("nil PutTask: %v", err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil Get hit")
	}
	if _, ok := s.Task("k"); ok {
		t.Fatal("nil Task hit")
	}
}

// TestDecodeStateValidates: the record decoder accepts exactly the
// well-formed fitted/skipped records and rejects everything else.
func TestDecodeStateValidates(t *testing.T) {
	valid := []TaskRecord{
		{Key: "a", Name: "t0", Status: StatusFitted, Payload: []byte("m")},
		{Key: "b", Name: "t1", Status: StatusSkipped, Class: "panic", Reason: "boom"},
	}
	for _, rec := range valid {
		payload, err := encodeTask(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeTask(payload); err != nil || !reflect.DeepEqual(got, rec) {
			t.Fatalf("valid record %+v: got %+v, %v", rec, got, err)
		}
	}
	for name, payload := range map[string]string{
		"not json":      `not json`,
		"null":          `null`,
		"empty key":     `{"key":"","name":"t0","status":"fitted"}`,
		"missing key":   `{"name":"t0","status":"fitted"}`,
		"bad status":    `{"key":"a","name":"t0","status":"maybe"}`,
		"no status":     `{"key":"a","name":"t0"}`,
		"unknown field": `{"key":"a","name":"t0","status":"fitted","version":1}`,
		"wrong type":    `{"key":"a","name":"t0","status":"fitted","payload":7}`,
	} {
		if rec, err := decodeTask([]byte(payload)); err == nil {
			t.Errorf("%s: decoded successfully as %+v", name, rec)
		}
	}
}

// TestSaveLoadState: a record stored with PutTask comes back from Task
// under its key; a malformed record, or one whose own key is not the key
// it is stored under, is a miss.
func TestSaveLoadState(t *testing.T) {
	s := &Store{Dir: t.TempDir()}
	recs := []TaskRecord{
		{Key: Key([]byte("t1")), Name: "time kern/a", Status: StatusFitted, Payload: []byte(`{"f":1}`)},
		{Key: Key([]byte("t2")), Name: "time kern/b", Status: StatusSkipped, Class: "panic", Reason: "injected"},
	}
	for _, rec := range recs {
		if err := s.PutTask(rec); err != nil {
			t.Fatalf("PutTask: %v", err)
		}
	}
	for _, rec := range recs {
		got, ok := s.Task(rec.Key)
		if !ok || !reflect.DeepEqual(got, rec) {
			t.Fatalf("Task(%s) = %+v, %v; want %+v", rec.Key, got, ok, rec)
		}
	}
	if _, ok := s.Task(Key([]byte("absent"))); ok {
		t.Fatal("absent record hit")
	}
	// A record stored under another key is a miss.
	other := Key([]byte("other"))
	payload, err := encodeTask(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(other, payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Task(other); ok {
		t.Fatal("record stored under a mismatched key loaded")
	}
	// A valid envelope around a payload that is not a record is a miss.
	if err := s.Put(other, []byte("not a record")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Task(other); ok {
		t.Fatal("malformed record loaded")
	}
}

// genRecord generates arbitrary well-formed task records.
func genRecord() propcheck.Gen[TaskRecord] {
	return propcheck.Gen[TaskRecord]{
		Generate: func(r *propcheck.Rand) TaskRecord {
			rec := TaskRecord{
				Key:  fmt.Sprintf("%064x", r.Int64Range(0, 1<<50)),
				Name: fmt.Sprintf("metric kern/%d", r.Intn(100)),
			}
			if r.Bool() {
				rec.Status = StatusFitted
				rec.Payload = randBytes(r, 128)
			} else {
				rec.Status = StatusSkipped
				rec.Class = []string{"panic", "degraded", "unmodelable"}[r.Intn(3)]
				rec.Reason = "injected failure"
			}
			return rec
		},
		Describe: func(rec TaskRecord) string {
			return fmt.Sprintf("key=%s status=%s", rec.Key, rec.Status)
		},
	}
}

func randBytes(r *propcheck.Rand, maxLen int) []byte {
	b := make([]byte, r.IntRange(1, maxLen))
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

// TestPropCheckpointRoundTrip: encode → decode → encode is
// byte-identical for arbitrary task records, a stored record reads back
// through Store.Task, and a truncated or bit-flipped record file is
// always detected and recovered to a miss, never a partial resume.
func TestPropCheckpointRoundTrip(t *testing.T) {
	propcheck.Check(t, genRecord(), func(rec TaskRecord) error {
		enc1, err := encodeTask(rec)
		if err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		dec, err := decodeTask(enc1)
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		enc2, err := encodeTask(dec)
		if err != nil {
			return fmt.Errorf("re-encode: %w", err)
		}
		if !bytes.Equal(enc1, enc2) {
			return errors.New("encode→decode→encode not byte-identical")
		}
		s := &Store{Dir: t.TempDir()}
		if err := s.PutTask(rec); err != nil {
			return err
		}
		if got, ok := s.Task(rec.Key); !ok || !reflect.DeepEqual(got, dec) {
			return fmt.Errorf("stored record read back as %+v, %v", got, ok)
		}
		// Damage detection: truncate the record file at a third and
		// two-thirds, flip one payload bit; all three must be a miss.
		path := filepath.Join(s.Dir, rec.Key+".ckpt")
		file, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, damage := range [][]byte{
			file[:len(file)/3],
			file[:2*len(file)/3],
			flipBit(file, len(file)-1),
		} {
			if err := os.WriteFile(path, damage, 0o644); err != nil {
				return err
			}
			if _, ok := s.Task(rec.Key); ok {
				return fmt.Errorf("damaged record %d loaded", i)
			}
		}
		return nil
	})
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x10
	return out
}
