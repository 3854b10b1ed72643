package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/pmnf"
)

// Checkpoint/resume for the fit stage. Every fit task is keyed by a
// content hash of its complete inputs (metric, callpath, series samples,
// modeling options), so a resumed run reuses a stored result if and only
// if recomputing it would be byte-identical — any input or configuration
// change silently invalidates the record. Each completed task is its own
// record file, <key>.ckpt, so any campaign that contains the same task
// reuses it, and two different profile sets can share one checkpoint
// directory.
//
// The directory is a verified cache. A record file is
//
//	edckpt v2\n
//	<sha256 hex of payload>\n
//	<payload: the JSON ckptRecord>
//
// written with one os.WriteFile: no temp file, no rename, no fsync. The
// digest is the only integrity mechanism. A torn, zeroed or interleaved
// write, or a record of another format version, fails the digest or the
// strict decode and is a miss, so its task refits and the refit
// overwrites it in place. A crash can cost refit work, never a wrong
// model, and leaves nothing but record files behind.
const ckptMagic = "edckpt v2"

// SavedModel is the serialized form of one fitted model: the model of a
// checkpoint record and the value of each entry in core's model file,
// so both artifacts share one layout. JSON float64 encoding round-trips
// exactly, so a decoded model predicts — and renders — byte-identically
// to the freshly fitted one.
type SavedModel struct {
	Function *pmnf.Function `json:"function"`
	SMAPE    float64        `json:"smape"`
	RSS      float64        `json:"rss"`
	// R2 is null for models whose data had no variance (R² undefined).
	R2             *float64            `json:"r2"`
	RelResidualStd float64             `json:"rel_residual_std"`
	Points         []measurement.Point `json:"points"`
	Actual         []float64           `json:"actual"`
}

// SaveModel converts a fitted model into its serialized form.
func SaveModel(m *modeling.Model) SavedModel {
	s := SavedModel{
		Function:       m.Function,
		SMAPE:          m.SMAPE,
		RSS:            m.RSS,
		RelResidualStd: m.RelResidualStd,
		Points:         m.Points,
		Actual:         m.Actual,
	}
	if !math.IsNaN(m.R2) {
		r2 := m.R2
		s.R2 = &r2
	}
	return s
}

// Model is the inverse of SaveModel; it rejects a model without a
// function.
func (s SavedModel) Model() (*modeling.Model, error) {
	if s.Function == nil {
		return nil, errors.New("pipeline: saved model without function")
	}
	r2 := math.NaN()
	if s.R2 != nil {
		r2 = *s.R2
	}
	return &modeling.Model{
		Function:       s.Function,
		SMAPE:          s.SMAPE,
		RSS:            s.RSS,
		R2:             r2,
		RelResidualStd: s.RelResidualStd,
		Points:         s.Points,
		Actual:         s.Actual,
	}, nil
}

// ckptRecord is one completed fit task: its fitted model, or the class
// and reason it was skipped or quarantined with.
type ckptRecord struct {
	// Key is the task's content key; a record read under another key is
	// a miss.
	Key string `json:"key"`
	// Name is the human-readable task identity, e.g. "kernel time k/a".
	Name string `json:"name"`
	// Status is "fitted" (Model set) or "skipped" (Class and Reason set).
	Status string      `json:"status"`
	Class  string      `json:"class,omitempty"`
	Reason string      `json:"reason,omitempty"`
	Model  *SavedModel `json:"model,omitempty"`
}

// encodeRecord returns the file bytes of a record.
func encodeRecord(rec ckptRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("pipeline: encoding checkpoint record: %w", err)
	}
	return fmt.Appendf(nil, "%s\n%x\n%s", ckptMagic, sha256.Sum256(payload), payload), nil
}

// decodeRecord strictly decodes the file bytes of the record stored
// under key. It rejects a bad magic or digest, unknown fields, a record
// of another key, an unknown status, and a status its model does not
// match, so resume never proceeds from a record it cannot reproduce.
func decodeRecord(data []byte, key string) (ckptRecord, error) {
	head, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok || string(head) != ckptMagic {
		return ckptRecord{}, errors.New("pipeline: checkpoint record: bad magic")
	}
	digest, payload, ok := bytes.Cut(rest, []byte{'\n'})
	if sum := sha256.Sum256(payload); !ok || string(digest) != hex.EncodeToString(sum[:]) {
		return ckptRecord{}, errors.New("pipeline: checkpoint record: digest mismatch")
	}
	var rec ckptRecord
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return ckptRecord{}, fmt.Errorf("pipeline: decoding checkpoint record: %w", err)
	}
	if rec.Key != key {
		return ckptRecord{}, fmt.Errorf("pipeline: checkpoint record %q read under key %q", rec.Key, key)
	}
	switch {
	case rec.Status == "fitted" && rec.Model != nil && rec.Model.Function != nil:
	case rec.Status == "skipped" && rec.Model == nil:
	default:
		return ckptRecord{}, fmt.Errorf("pipeline: checkpoint record %s: status %q does not match its model", key, rec.Status)
	}
	return rec, nil
}

// contentKey hashes the given parts into a content key (hex). Parts are
// length-prefixed, so ("ab","c") and ("a","bc") key differently.
func contentKey(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ckptSeries is the canonical serialization of a fit task's input series
// for key derivation: the measurement points and every repetition value,
// in sample order.
type ckptSeries struct {
	Points []measurement.Point `json:"points"`
	Reps   [][]float64         `json:"reps"`
}

// fitTaskKey derives the content key of one fit task.
func fitTaskKey(t fitTask, opts modeling.Options) (string, error) {
	cs := ckptSeries{}
	for _, sm := range t.series.Samples {
		cs.Points = append(cs.Points, sm.Point)
		cs.Reps = append(cs.Reps, sm.Reps)
	}
	seriesJSON, err := json.Marshal(cs)
	if err != nil {
		return "", fmt.Errorf("pipeline: encoding series for task key: %w", err)
	}
	optsJSON, err := json.Marshal(opts)
	if err != nil {
		return "", fmt.Errorf("pipeline: encoding options for task key: %w", err)
	}
	app := []byte{0}
	if t.app {
		app[0] = 1
	}
	return contentKey(
		[]byte("fit/v1"),
		[]byte(t.metric),
		[]byte(t.path),
		app,
		seriesJSON,
		optsJSON,
	), nil
}

// name renders the human-readable identity stored in task records.
func (t fitTask) name() string {
	kind := "kernel"
	if t.app {
		kind = "app"
	}
	return fmt.Sprintf("%s %s %s", kind, t.metric, t.path)
}

// ckptPlan is the fit stage's checkpoint context: the directory, every
// task's content key, and whether stored records may be reused. A nil
// plan (no directory) reuses nothing and records nothing.
type ckptPlan struct {
	dir    string
	keys   []string // task index → content key
	resume bool
}

// newCkptPlan derives the content key of every task and creates the
// directory; it returns a nil plan for an empty directory. A directory
// that cannot be created only makes every write fail, and writes are
// best effort (record).
func newCkptPlan(dir string, tasks []fitTask, opts modeling.Options, resume bool) (*ckptPlan, error) {
	if dir == "" {
		return nil, nil
	}
	plan := &ckptPlan{dir: dir, keys: make([]string, len(tasks)), resume: resume}
	for i, t := range tasks {
		key, err := fitTaskKey(t, opts)
		if err != nil {
			return nil, err
		}
		plan.keys[i] = key
	}
	_ = os.MkdirAll(dir, 0o755)
	return plan, nil
}

// path maps task i to its record file. Keys are hex hashes, so the name
// needs no escaping.
func (p *ckptPlan) path(i int) string { return filepath.Join(p.dir, p.keys[i]+".ckpt") }

// reuse returns task i's stored record when resuming. A missing,
// unreadable or damaged record is a miss: the task refits.
func (p *ckptPlan) reuse(i int) (ckptRecord, bool) {
	if p == nil || !p.resume {
		return ckptRecord{}, false
	}
	data, err := os.ReadFile(p.path(i))
	if err != nil {
		return ckptRecord{}, false
	}
	rec, err := decodeRecord(data, p.keys[i])
	return rec, err == nil
}

// record writes task i's completed record under its key. Write failures
// are deliberately swallowed: checkpointing is an optimization, never a
// reason to fail a run that is otherwise succeeding, and a torn write is
// a miss on the next read.
func (p *ckptPlan) record(i int, rec ckptRecord) {
	if p == nil {
		return
	}
	rec.Key = p.keys[i]
	if data, err := encodeRecord(rec); err == nil {
		_ = os.WriteFile(p.path(i), data, 0o644)
	}
}
