package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/pmnf"
	"extradeep/internal/resilience"
)

// Checkpoint/resume for the fit stage. Every fit task is keyed by a
// content hash of its complete inputs (metric, callpath, series samples,
// modeling options), so a resumed run reuses a stored result if and only
// if recomputing it would be byte-identical — any input or configuration
// change silently invalidates the record. Each completed task is its own
// record file under its key, so any campaign that contains the same task
// reuses it, and two different profile sets can share one checkpoint
// directory.

// SavedModel is the serialized form of one fitted model: the payload of
// a checkpoint task record and the value of each entry in core's model
// file, so both artifacts share one layout. JSON float64 encoding
// round-trips exactly, so a decoded model predicts — and renders —
// byte-identically to the freshly fitted one.
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

// decodeModel decodes a checkpoint task record's model payload.
func decodeModel(data []byte) (*modeling.Model, error) {
	var s SavedModel
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("pipeline: decoding checkpointed model: %w", err)
	}
	return s.Model()
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
	return resilience.Key(
		[]byte("fit/v1"),
		[]byte(t.metric),
		[]byte(t.path),
		app,
		seriesJSON,
		optsJSON,
	), nil
}

// taskName renders the human-readable identity stored in task records.
func (t fitTask) name() string {
	kind := "kernel"
	if t.app {
		kind = "app"
	}
	return fmt.Sprintf("%s %s %s", kind, t.metric, t.path)
}

// ckptPlan is the fit stage's checkpoint context: the store, every
// task's content key, and whether stored records may be reused. A nil
// plan (no store) reuses nothing and records nothing.
type ckptPlan struct {
	store  *resilience.Store
	keys   []string // task index → content key
	resume bool
}

// newCkptPlan derives the content key of every task; it returns a nil
// plan for a nil store.
func newCkptPlan(store *resilience.Store, tasks []fitTask, opts modeling.Options, resume bool) (*ckptPlan, error) {
	if store == nil {
		return nil, nil
	}
	plan := &ckptPlan{store: store, keys: make([]string, len(tasks)), resume: resume}
	for i, t := range tasks {
		key, err := fitTaskKey(t, opts)
		if err != nil {
			return nil, err
		}
		plan.keys[i] = key
	}
	return plan, nil
}

// reuse returns the stored record for task i when resuming. Nil-safe.
func (p *ckptPlan) reuse(i int) (resilience.TaskRecord, bool) {
	if p == nil || !p.resume {
		return resilience.TaskRecord{}, false
	}
	return p.store.Task(p.keys[i])
}

// record persists task i's completed record under its key. Nil-safe.
// Write failures are deliberately swallowed: checkpointing is an
// optimization, never a reason to fail a run that is otherwise
// succeeding.
func (p *ckptPlan) record(i int, rec resilience.TaskRecord) {
	if p == nil {
		return
	}
	rec.Key = p.keys[i]
	_ = p.store.PutTask(rec)
}
