package resilience

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCheckpointDecode asserts the checkpoint loader invariant on
// arbitrary record-file bytes: the envelope plus record decode either
// returns a fully validated task record that re-encodes byte-identically
// and reads back through Store.Task, or an error — it never panics and
// never accepts a record it cannot reproduce. This is the property that
// makes corrupt checkpoints safe: anything damaged is rejected here and
// Store.Task turns the rejection into a cache miss.
func FuzzCheckpointDecode(f *testing.F) {
	valid := mustEncodeRecord(f, TaskRecord{Key: Key([]byte("t1")), Name: "time kern/a", Status: StatusFitted, Payload: []byte(`{"f":"p^1"}`)})
	f.Add(valid)
	f.Add(mustEncodeRecord(f, TaskRecord{Key: Key([]byte("t2")), Name: "time kern/b", Status: StatusSkipped, Class: "panic", Reason: "injected"}))
	f.Add(valid[:len(valid)/2])               // truncated mid-payload
	f.Add(valid[:len("edckpt v1")])           // magic only
	f.Add([]byte("edckpt v1\n"))              // no digest line
	f.Add([]byte("edckpt v2\nxx\n{}"))        // wrong version magic
	f.Add(encodeEnvelope([]byte("not json"))) // valid envelope, bad payload
	f.Add(encodeEnvelope([]byte(`{"key":"k","status":"fitted"}`)))
	f.Add(encodeEnvelope([]byte(`{"key":"k","status":"fitted","version":1}`))) // unknown field
	f.Add(bytes.Replace(valid, []byte("fitted"), []byte("maybes"), 1))         // broken digest
	f.Add(encodeEnvelope([]byte(`{"key":"","status":"skipped"}`)))             // empty key

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecordFile(data)
		if err != nil {
			return // rejected input: the other half of the invariant
		}
		// Every accepted record reaches the canonical encoding in one
		// step: encode → decode → encode is byte-identical (the input
		// itself may carry non-canonical JSON whitespace).
		re, err := encodeRecordFile(rec)
		if err != nil {
			t.Fatalf("accepted record failed to re-encode: %v", err)
		}
		rec2, err := decodeRecordFile(re)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		re2, err := encodeRecordFile(rec2)
		if err != nil {
			t.Fatalf("canonical record failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("canonical encoding is not a fixed point:\n in: %q\nout: %q", re, re2)
		}
		// The accepted bytes, as a file under the record's own key, read
		// back through the store as the same record. Keys that cannot
		// name a file are out of scope here.
		if filepath.Base(rec.Key) != rec.Key || rec.Key == "." || rec.Key == ".." {
			return
		}
		s := &Store{Dir: t.TempDir()}
		if err := os.WriteFile(s.path(rec.Key), data, 0o644); err != nil {
			return
		}
		if got, ok := s.Task(rec.Key); !ok || !reflect.DeepEqual(got, rec) {
			t.Fatalf("record file read back as %+v, %v; want %+v", got, ok, rec)
		}
	})
}

// decodeRecordFile decodes record-file bytes the way Store.Task does.
func decodeRecordFile(data []byte) (TaskRecord, error) {
	payload, err := decodeEnvelope(data)
	if err != nil {
		return TaskRecord{}, err
	}
	return decodeTask(payload)
}

// encodeRecordFile encodes a record to its file bytes the way
// Store.PutTask does.
func encodeRecordFile(rec TaskRecord) ([]byte, error) {
	payload, err := encodeTask(rec)
	if err != nil {
		return nil, err
	}
	return encodeEnvelope(payload), nil
}

func mustEncodeRecord(f *testing.F, rec TaskRecord) []byte {
	f.Helper()
	data, err := encodeRecordFile(rec)
	if err != nil {
		f.Fatal(err)
	}
	return data
}
