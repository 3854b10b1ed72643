package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/pmnf"
	"extradeep/internal/resilience"
)

// Checkpoint/resume for the fit stage. Every fit task is keyed by a
// content hash of its complete inputs (metric, callpath, series samples,
// modeling options), so a resumed run reuses a stored result if and only
// if recomputing it would be byte-identical — any input or configuration
// change silently invalidates the record. The campaign key hashes all
// task keys, so the state file itself is per-campaign and two different
// profile sets can share one checkpoint directory.

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

// ckptPlan is the fit stage's checkpoint context: the per-task keys, the
// campaign key, and the previously completed records keyed for reuse.
type ckptPlan struct {
	store      *resilience.Store
	campaign   string
	keys       []string // task index → content key
	prior      map[string]resilience.TaskRecord
	aggregates []byte
}

// newCkptPlan derives keys for every task and, when resume is set, loads
// any prior state for this campaign. A nil store yields a plan that
// reuses nothing and records nothing.
func newCkptPlan(store *resilience.Store, tasks []fitTask, opts modeling.Options, aggregates []byte, resume bool) (*ckptPlan, error) {
	plan := &ckptPlan{store: store, prior: map[string]resilience.TaskRecord{}}
	if store == nil {
		return plan, nil
	}
	optsJSON, err := json.Marshal(opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: encoding options for campaign key: %w", err)
	}
	parts := [][]byte{[]byte("campaign/v1"), optsJSON}
	plan.keys = make([]string, len(tasks))
	for i, t := range tasks {
		key, err := fitTaskKey(t, opts)
		if err != nil {
			return nil, err
		}
		plan.keys[i] = key
		parts = append(parts, []byte(key))
	}
	plan.campaign = resilience.Key(parts...)
	if resume {
		if st, ok := resilience.LoadState(plan.store, plan.campaign); ok {
			for _, rec := range st.Tasks {
				plan.prior[rec.Key] = rec
			}
		}
	}
	plan.aggregates = aggregates
	return plan, nil
}

// key returns task i's content key ("" without a store).
func (p *ckptPlan) key(i int) string {
	if p.keys == nil {
		return ""
	}
	return p.keys[i]
}

// reuse returns the prior record for task i, if any.
func (p *ckptPlan) reuse(i int) (resilience.TaskRecord, bool) {
	if p.keys == nil {
		return resilience.TaskRecord{}, false
	}
	rec, ok := p.prior[p.keys[i]]
	return rec, ok
}

// ckptWriter persists campaign state incrementally: every completed task
// appends (or replaces) its record and atomically rewrites the state
// file, so a kill at any instant leaves a loadable prefix of the
// campaign. Safe for concurrent use by the fit worker pool. Write
// failures are deliberately swallowed: checkpointing is an optimization,
// never a reason to fail a run that is otherwise succeeding.
type ckptWriter struct {
	mu    sync.Mutex
	store *resilience.Store
	state *resilience.CampaignState
}

// writer builds the incremental writer for this plan, pre-seeded with
// the reused prior records so a resumed run's state file stays complete.
func (p *ckptPlan) writer() *ckptWriter {
	if p.store == nil {
		return nil
	}
	return &ckptWriter{
		store: p.store,
		state: &resilience.CampaignState{
			Version:    resilience.StateVersion,
			Campaign:   p.campaign,
			Aggregates: p.aggregates,
		},
	}
}

// record persists one completed task. Nil-safe.
func (w *ckptWriter) record(rec resilience.TaskRecord) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.addLocked(rec)
	_ = resilience.SaveState(w.store, w.state)
}

// absorb adds a reused prior record to the in-memory state without
// rewriting the file: reuse implies the on-disk state for this campaign
// already contains the record, so a kill at any instant still leaves a
// complete state, and a pure resume costs zero writes. The next record()
// persists the absorbed records along with the fresh one.
func (w *ckptWriter) absorb(rec resilience.TaskRecord) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.addLocked(rec)
}

// addLocked appends or replaces rec in the in-memory task list.
func (w *ckptWriter) addLocked(rec resilience.TaskRecord) {
	for i := range w.state.Tasks {
		if w.state.Tasks[i].Key == rec.Key {
			w.state.Tasks[i] = rec
			return
		}
	}
	w.state.Tasks = append(w.state.Tasks, rec)
}
