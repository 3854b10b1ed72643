// BuildLabels appends in a loop but is not designated hot, so the perf
// family (allocloop, prealloc) stays silent on it; a //edlint:hotpath
// directive on it would make the append a prealloc finding. It keeps a
// non-hot allocation site in the module that the loader-parity tests
// run the full default suite over.
package report

// BuildLabels collects one label per row.
func BuildLabels(rows [][]float64) []string {
	var labels []string
	for range rows {
		labels = append(labels, "row")
	}
	return labels
}
