package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"extradeep/internal/pipeline"
)

// span is one timed call into a layer. Spans of one op share the op id;
// Parent is 0 for an op's root spans.
type span struct {
	ID       int64              `json:"id"`
	Parent   int64              `json:"parent"`
	Op       int                `json:"op"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps the spans of a traced phase in memory. A nil *tracer is
// the untraced mode: every method is a no-op, so workloads run the same
// code either way.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; a nil *active ignores every call.
type active struct {
	t     *tracer
	s     span
	alloc uint64 // TotalAlloc at begin, when the span measures allocation
	heap  bool
}

// begin opens a span.
func (t *tracer) begin(op int, parent int64, name string) *active {
	if t == nil {
		return nil
	}
	return t.open(op, parent, name, false)
}

// beginAlloc opens a span that also records the whole-process heap
// allocation between its begin and end as the counter alloc_bytes. The
// memory statistics are read outside the timed interval.
func (t *tracer) beginAlloc(op int, parent int64, name string) *active {
	if t == nil {
		return nil
	}
	return t.open(op, parent, name, true)
}

func (t *tracer) open(op int, parent int64, name string, heap bool) *active {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	a := &active{t: t, s: span{ID: id, Parent: parent, Op: op, Name: name}, heap: heap}
	if heap {
		a.alloc = totalAlloc()
	}
	a.s.StartNs = time.Since(t.epoch).Nanoseconds()
	return a
}

// id is the span's id, 0 for a nil span (so children become roots).
func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// count adds v to one of the span's counters.
func (a *active) count(name string, v float64) {
	if a == nil {
		return
	}
	if a.s.Counters == nil {
		a.s.Counters = map[string]float64{}
	}
	a.s.Counters[name] += v
}

// end closes the span and hands it to the tracer.
func (a *active) end() {
	if a == nil {
		return
	}
	a.s.EndNs = time.Since(a.t.epoch).Nanoseconds()
	if a.heap {
		a.count("alloc_bytes", float64(totalAlloc()-a.alloc))
	}
	a.t.mu.Lock()
	defer a.t.mu.Unlock()
	a.t.spans = append(a.t.spans, a.s)
}

// snapshot returns the recorded spans in id order.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// selfTimes maps each span id to its self time in nanoseconds: the
// span's duration minus the part of its interval that its direct
// children cover. Overlapping children are counted once, and children
// reaching outside the parent are clipped to it.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.EndNs - s.StartNs) - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.StartNs, parent.StartNs), min(c.EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// stageSpans turns pipeline Observer events into spans under the span
// attached last. It receives events from whichever goroutine runs the
// pipeline (a server fit loop included), so its state is locked.
type stageSpans struct {
	tr     *tracer
	prefix string

	mu     sync.Mutex
	op     int
	parent int64
	open   map[pipeline.Stage]*active
}

func newStageSpans(tr *tracer, prefix string) *stageSpans {
	return &stageSpans{tr: tr, prefix: prefix, open: map[pipeline.Stage]*active{}}
}

// attach makes later stage spans children of parent within op.
func (o *stageSpans) attach(op int, parent int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.op, o.parent = op, parent
}

func (o *stageSpans) target() (int, int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.op, o.parent
}

// StageStart implements pipeline.Observer.
func (o *stageSpans) StageStart(s pipeline.Stage) {
	op, parent := o.target()
	a := o.tr.beginAlloc(op, parent, o.prefix+string(s))
	o.mu.Lock()
	defer o.mu.Unlock()
	o.open[s] = a
}

// StageDone implements pipeline.Observer.
func (o *stageSpans) StageDone(st pipeline.StageStats) {
	o.mu.Lock()
	a := o.open[st.Stage]
	delete(o.open, st.Stage)
	o.mu.Unlock()
	if a == nil {
		return
	}
	keys := make([]string, 0, len(st.Counters))
	for k := range st.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a.count(k, float64(st.Counters[k]))
	}
	if st.Err != nil {
		a.count("errors", 1)
	}
	a.end()
}

// layerMetric derives one per-layer metric from a traced phase: each op
// contributes the sum of value over its spans named span (a trailing "*"
// matches a name prefix), and agg folds the per-op values (median unless
// set).
type layerMetric struct {
	name  string
	span  string
	value func(s span, selfMs float64) float64
	agg   func([]float64) float64
}

// busy is the value of a span's self time in milliseconds.
func busy(_ span, selfMs float64) float64 { return selfMs }

// counter reads one counter of a span.
func counter(name string) func(span, float64) float64 {
	return func(s span, _ float64) float64 { return s.Counters[name] }
}

// mb reads a byte counter in MB (10⁶ bytes).
func mb(name string) func(span, float64) float64 {
	return func(s span, _ float64) float64 { return s.Counters[name] / 1e6 }
}

// one counts spans.
func one(span, float64) float64 { return 1 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// evalLayers computes every metric over the spans of a traced phase.
func evalLayers(spans []span, metrics []layerMetric) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64, len(metrics))
	for _, m := range metrics {
		byOp := map[int]float64{}
		var ops []int
		prefix, isPrefix := strings.CutSuffix(m.span, "*")
		for _, s := range spans {
			if s.Name != m.span && !(isPrefix && strings.HasPrefix(s.Name, prefix)) {
				continue
			}
			if _, seen := byOp[s.Op]; !seen {
				ops = append(ops, s.Op)
			}
			byOp[s.Op] += m.value(s, float64(self[s.ID])/1e6)
		}
		sort.Ints(ops)
		vals := make([]float64, len(ops))
		for i, op := range ops {
			vals[i] = byOp[op]
		}
		agg := m.agg
		if agg == nil {
			agg = median
		}
		out[m.name] = agg(vals)
	}
	return out
}
