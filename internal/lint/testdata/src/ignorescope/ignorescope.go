// Package ignorescope is a fixture for the widened suppression scopes:
// //edlint:ignore-block covers the syntax node below the directive,
// //edlint:ignore-file covers its whole file, and an unknown scope suffix
// is itself a finding. The file form is exercised for libpanic, so the
// panics in the file stay silent while divguard findings outside the
// suppressed block survive.
package ignorescope

import "fmt"

//edlint:ignore-file libpanic fixture: every panic in this file marks a state callers rule out

// BlockSuppressed divides by the probe throughout; the block directive
// covers the whole function, including the loop.
//
//edlint:ignore-block divguard fixture: callers draw the probe from a table of nonzero entries
func BlockSuppressed(table map[string]float64, probe float64) int {
	hits := 0
	for _, v := range table {
		if v/probe > 1 { // ok: inside the suppressed block
			hits++
		}
	}
	if 1/probe > 0.5 { // ok: still inside the suppressed block
		hits++
	}
	return hits
}

// Survivor sits after the suppressed block, so its finding stays.
func Survivor(a, b float64) float64 {
	return a / b // want: divguard outside any suppression
}

// FileScoped relies on the file-wide libpanic directive.
func FileScoped(state string) {
	panic("unreachable state " + state) // ok: file-scoped libpanic suppression
}

// EscapeHatch documents a maporder false positive: the print below emits
// a constant string per iteration, so map order is unobservable, which
// the intra-procedural analyzer cannot prove.
func EscapeHatch(m map[string]int) {
	//edlint:ignore-block maporder fixture: the loop prints one dot per entry, order cannot show
	for range m {
		fmt.Print(".") // ok: suppressed false positive
	}
}

//edlint:ignore-everywhere divguard no such scope exists
func UnknownScope(a, b float64) float64 {
	return a / b // want: the directive above is malformed, nothing is suppressed
}
