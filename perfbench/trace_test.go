package main

import (
	"math"
	"testing"
)

// TestSelfTimeSubtractsChildren builds one op's nested spans:
//
//	op        [0, 100)
//	├─ a      [10, 30)
//	│  └─ a1  [15, 20)
//	├─ b      [20, 50)   overlaps a
//	└─ c      [90, 120)  reaches past op's end
func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 2, Name: "a1", StartNs: 15, EndNs: 20},
		{ID: 4, Parent: 1, Name: "b", StartNs: 20, EndNs: 50},
		{ID: 5, Parent: 1, Name: "c", StartNs: 90, EndNs: 120},
	}
	want := map[int64]int64{
		1: 100 - 40 - 10, // [10, 50) once, plus [90, 100)
		2: 20 - 5,        // a minus a1; b is a sibling, not a child
		3: 5,
		4: 30,
		5: 30,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestEvalLayersTakesMedianOverOps(t *testing.T) {
	var spans []span
	next := int64(0)
	add := func(op int, parent int64, name string, lo, hi int64, counters map[string]float64) int64 {
		next++
		spans = append(spans, span{ID: next, Parent: parent, Op: op, Name: name, StartNs: lo, EndNs: hi, Counters: counters})
		return next
	}
	// Three ops; "fit" runs inside "build" and takes 1, 2 and 9 ms.
	for op, fitMs := range []int64{1, 2, 9} {
		root := add(op, 0, "op", 0, 20e6, nil)
		build := add(op, root, "build", 0, 10e6, nil)
		add(op, build, "fit", 0, fitMs*1e6, map[string]float64{"tasks": 4})
	}
	got := evalLayers(spans, []layerMetric{
		{name: "fit.busy_ms", span: "fit", value: busy},
		{name: "build.busy_ms", span: "build", value: busy},
		{name: "fit.tasks", span: "fit", value: counter("tasks"), agg: sum},
		{name: "fit.ops", span: "f*", value: one, agg: sum},
	})
	want := map[string]float64{"fit.busy_ms": 2, "build.busy_ms": 8, "fit.tasks": 12, "fit.ops": 3}
	for n, w := range want {
		if math.Abs(got[n]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", n, got[n], w)
		}
	}
}

func TestUntracedSpansAreNoOps(t *testing.T) {
	var tr *tracer
	a := tr.begin(1, 0, "op")
	a.count("x", 1)
	a.end()
	if a.id() != 0 {
		t.Errorf("nil span id = %d", a.id())
	}
}
