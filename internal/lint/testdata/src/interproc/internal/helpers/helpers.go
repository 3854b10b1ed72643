// Package helpers is the unpoliced helper layer of the interprocedural
// fixture: the clock and rand helpers launder an effect that a policed
// caller consumes — or sanitize it, proving the summary pass knows the
// difference — and the rest back the callers' negative controls.
package helpers

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// now launders the clock read one extra frame down.
func now() time.Time { return time.Now() }

// StampLabel returns a label derived from the wall clock, two frames
// away from time.Now.
func StampLabel() string { return now().String() }

// Draw returns an unseeded pseudo-random value.
func Draw() float64 { return rand.Float64() }

// SeededLabel draws through a sanctioned source: the suppression at the
// draw must clear every laundered caller as well.
func SeededLabel() string {
	//edlint:ignore wallclock fixture: the draw derives from a fixed seed and replays identically
	return fmt.Sprint(rand.New(rand.NewSource(42)).Int63())
}

// bucketByNode accumulates rows in map iteration order.
func bucketByNode(m map[string]int) []string {
	var rows []string
	for node, v := range m {
		rows = append(rows, fmt.Sprintf("%s=%d", node, v))
	}
	return rows
}

// FormatRows launders the map-ordered slice one frame up.
func FormatRows(m map[string]int) []string {
	return bucketByNode(m)
}

// SortedRows sanitizes: the rows are sorted before they return, so no
// caller may be flagged for emitting them.
func SortedRows(m map[string]int) []string {
	rows := bucketByNode(m)
	sort.Strings(rows)
	return rows
}

// Detach builds a root context while accepting none.
func Detach() context.Context {
	return context.Background()
}

// Spin starts a goroutine that no context.Context can reach.
func Spin(fn func()) {
	go fn()
}

// SpawnCtx spawns a goroutine that captures the caller's ctx: the spawn
// is cancellable and carries no detached-goroutine effect.
func SpawnCtx(ctx context.Context, fn func()) {
	go func() {
		<-ctx.Done()
		fn()
	}()
}

// Push performs a bare channel send on its parameter.
func Push(ch chan<- int, v int) {
	ch <- v
}

// Relay launders Push's bare send one frame up.
func Relay(ch chan<- int) {
	Push(ch, 7)
}

// PushSafe races the send against cancellation; no bare-send effect.
func PushSafe(ctx context.Context, ch chan<- int, v int) {
	select {
	case ch <- v:
	case <-ctx.Done():
	}
}
