// Package report is the maporder fixture caller. It emits rows that the
// helpers accumulate in map iteration order; maporder reports the
// accumulating append inside the helper, so every call site here is a
// negative control.
package report

import (
	"fmt"
	"io"
	"sort"

	"fixture/internal/helpers"
)

// Write emits rows whose order follows map iteration inside the helper
// chain FormatRows ← bucketByNode; the finding is bucketByNode's append.
func Write(w io.Writer, m map[string]int) {
	rows := helpers.FormatRows(m)
	fmt.Fprintln(w, rows)
}

// WriteSorted uses the helper that sorts before returning; the callee
// sanitizes and no finding may appear here.
func WriteSorted(w io.Writer, m map[string]int) {
	fmt.Fprintln(w, helpers.SortedRows(m))
}

// WriteResorted re-sorts in the caller before emitting; the caller
// sanitizes and no finding may appear here.
func WriteResorted(w io.Writer, m map[string]int) {
	rows := helpers.FormatRows(m)
	sort.Strings(rows)
	fmt.Fprintln(w, rows)
}
