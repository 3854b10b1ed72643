package resilience

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Checkpoint file layout: a three-part envelope
//
//	edckpt v1\n
//	<sha256 hex of payload>\n
//	<payload bytes>
//
// The digest makes truncation and bit flips detectable: a record either
// decodes to exactly the bytes that were written or it is a miss — never
// a partial resume from corrupt state. Writes are temp+rename in the
// same directory, so a killed process leaves either the previous record
// or the new one, never a torn file.
const envelopeMagic = "edckpt v1"

// errCorrupt reports an envelope that failed validation; Store.Get turns
// it into a miss.
var errCorrupt = errors.New("resilience: corrupt checkpoint")

// encodeEnvelope wraps a payload in the checksummed envelope.
func encodeEnvelope(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	b.Grow(len(envelopeMagic) + 1 + hex.EncodedLen(len(sum)) + 1 + len(payload))
	b.WriteString(envelopeMagic)
	b.WriteByte('\n')
	b.WriteString(hex.EncodeToString(sum[:]))
	b.WriteByte('\n')
	b.Write(payload)
	return b.Bytes()
}

// decodeEnvelope validates the envelope and returns the payload, or
// errCorrupt (wrapped with the reason) for anything damaged.
func decodeEnvelope(data []byte) ([]byte, error) {
	head, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok || string(head) != envelopeMagic {
		return nil, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	digest, payload, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok || len(digest) != hex.EncodedLen(sha256.Size) {
		return nil, fmt.Errorf("%w: bad digest line", errCorrupt)
	}
	want, err := hex.DecodeString(string(digest))
	if err != nil {
		return nil, fmt.Errorf("%w: bad digest line", errCorrupt)
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("%w: payload digest mismatch", errCorrupt)
	}
	return payload, nil
}

// Key hashes the given parts into a content key (hex). Parts are
// length-prefixed, so ("ab","c") and ("a","bc") key differently.
func Key(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Store is a content-hash-keyed checkpoint directory. A nil *Store is a
// valid no-op: Get always misses and Put discards.
type Store struct {
	// Dir is the checkpoint directory; it is created on first Put.
	Dir string
}

// path maps a key to its record file. Keys are hex hashes, so the name
// needs no escaping.
func (s *Store) path(key string) string { return filepath.Join(s.Dir, key+".ckpt") }

// Get returns the payload stored under key. Missing, unreadable or
// corrupt records are all a miss — the caller recomputes, it never
// resumes from damaged state.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	payload, err := decodeEnvelope(data)
	if err != nil {
		return nil, false
	}
	return payload, true
}

// Put atomically writes the payload under key: the envelope goes to a
// temp file in the same directory and is renamed into place, so readers
// and crashes see either the old record or the new one in full.
func (s *Store) Put(key string, payload []byte) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("resilience: checkpoint dir: %w", err)
	}
	tmp, err := os.CreateTemp(s.Dir, ".tmp-"+key[:min(8, len(key))]+"-*")
	if err != nil {
		return fmt.Errorf("resilience: checkpoint temp file: %w", err)
	}
	_, werr := tmp.Write(encodeEnvelope(payload))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("resilience: writing checkpoint %s: %w", key, errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("resilience: committing checkpoint %s: %w", key, err)
	}
	return nil
}

// TaskRecord is one completed unit of a campaign: a fitted model, or a
// quarantined/unmodelable unit with its failure class. Each record is
// its own file under its key (PutTask/Task), so any campaign containing
// the same task reuses it and concurrent writers never share a file.
type TaskRecord struct {
	// Key is the content hash of the task's inputs; resume matches on it,
	// so a changed input can never reuse a stale result.
	Key string `json:"key"`
	// Name is the human-readable task identity, e.g. "time kern/conv1".
	Name string `json:"name"`
	// Status is "fitted" or "skipped".
	Status string `json:"status"`
	// Class is the failure class for skipped tasks ("panic", "degraded",
	// "unmodelable").
	Class string `json:"class,omitempty"`
	// Reason is the failure detail for skipped tasks.
	Reason string `json:"reason,omitempty"`
	// Payload is the opaque encoded result for fitted tasks.
	Payload []byte `json:"payload,omitempty"`
}

// Task-record statuses.
const (
	StatusFitted  = "fitted"
	StatusSkipped = "skipped"
)

// encodeTask canonically serializes a task record. Encoding is
// deterministic, so encode→decode→encode is byte-identical.
func encodeTask(rec TaskRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("resilience: encoding task record: %w", err)
	}
	return payload, nil
}

// decodeTask strictly decodes a task record payload: unknown fields, an
// empty key and an unknown status are all errors, so resume never
// proceeds from a record it cannot reproduce.
func decodeTask(payload []byte) (TaskRecord, error) {
	var rec TaskRecord
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return TaskRecord{}, fmt.Errorf("resilience: decoding task record: %w", err)
	}
	if rec.Key == "" {
		return TaskRecord{}, errors.New("resilience: task record has no key")
	}
	switch rec.Status {
	case StatusFitted, StatusSkipped:
	default:
		return TaskRecord{}, fmt.Errorf("resilience: task %s has unknown status %q", rec.Key, rec.Status)
	}
	return rec, nil
}

// PutTask atomically stores the record as its own file under its key.
func (s *Store) PutTask(rec TaskRecord) error {
	payload, err := encodeTask(rec)
	if err != nil {
		return err
	}
	return s.Put(rec.Key, payload)
}

// Task returns the record stored under key. A missing, damaged or
// malformed record is a miss, and so is a record whose own key is not
// the one it was looked up under.
func (s *Store) Task(key string) (TaskRecord, bool) {
	payload, ok := s.Get(key)
	if !ok {
		return TaskRecord{}, false
	}
	rec, err := decodeTask(payload)
	if err != nil || rec.Key != key {
		return TaskRecord{}, false
	}
	return rec, true
}
