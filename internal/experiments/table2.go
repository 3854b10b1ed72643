package experiments

import (
	"fmt"
	"sort"
	"strings"

	"extradeep/internal/aggregate"
	"extradeep/internal/calltree"
	"extradeep/internal/epoch"
	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// table2Nodes are the evaluation node counts reported in Table 2.
var table2Nodes = []int{24, 32, 40, 48, 56, 64}

// Table2RowKey identifies one row of Table 2.
type Table2RowKey struct {
	// Group is the model-type label, e.g. "CUDA kernels" or "MPI".
	Group string
	// Metric is the modeled metric.
	Metric measurement.Metric
}

// Table2Row carries one row's numbers.
type Table2Row struct {
	Key Table2RowKey
	// MPE maps node count → median percentage error across all kernel
	// models of the group.
	MPE map[int]float64
	// Models is the number of kernel models in the group.
	Models int
}

// Table2Result reproduces Table 2: per-model-type prediction accuracy at
// the evaluation scales, for all benchmarks on both systems under data
// parallelism.
type Table2Result struct {
	Rows []Table2Row
}

// table2Group maps a kernel kind to its Table 2 row label ("" = not
// reported, e.g. CUDA API bookkeeping).
func table2Group(k calltree.Kind) string {
	switch k {
	case calltree.KindCUDA:
		return "CUDA kernels"
	case calltree.KindNVTX:
		return "NVTX func."
	case calltree.KindOS:
		return "OS func."
	case calltree.KindCuBLAS:
		return "cuBLAS"
	case calltree.KindCuDNN:
		return "cuDNN"
	case calltree.KindMPI, calltree.KindNCCL:
		return "MPI"
	case calltree.KindMemcpy, calltree.KindMemset:
		return "Memory ops."
	default:
		return ""
	}
}

// table2Metrics lists the metrics reported per group.
func table2Metrics(group string) []measurement.Metric {
	switch group {
	case "CUDA kernels", "NVTX func.":
		return []measurement.Metric{measurement.MetricTime, measurement.MetricVisits}
	case "Memory ops.":
		return []measurement.Metric{measurement.MetricTime, measurement.MetricBytes}
	default:
		return []measurement.Metric{measurement.MetricTime}
	}
}

// Table2 runs the kernel-level accuracy study.
func Table2(seed int64, benchNames ...string) (*Table2Result, error) {
	type cellErrors struct {
		errs   map[int][]float64
		models int
	}
	cells := make(map[Table2RowKey]*cellErrors)
	record := func(key Table2RowKey, nodes int, err float64) {
		c := cells[key]
		if c == nil {
			c = &cellErrors{errs: make(map[int][]float64)}
			cells[key] = c
		}
		c.errs[nodes] = append(c.errs[nodes], err)
	}

	for _, sys := range []hardware.System{hardware.DEEP(), hardware.JURECA()} {
		for _, benchName := range benchNamesOrAll(benchNames) {
			b, err := engine.ByName(benchName)
			if err != nil {
				return nil, err
			}
			strat := parallel.DataParallel{FusionBuckets: 4}
			res, err := runCell(b, sys, strat, true, seed)
			if err != nil {
				return nil, fmt.Errorf("table2 %s/%s: %w", sys.Name, benchName, err)
			}
			if res == nil {
				continue
			}
			setup := engine.SetupFunc(b, strat, true)

			// Kernel kinds by callpath, from any aggregate.
			kinds := make(map[string]calltree.Kind)
			for _, agg := range res.Aggregates {
				for path, k := range agg.Kernels {
					kinds[path] = k.Kind
				}
			}
			// Aggregates by rank count for actual values.
			aggByRank := make(map[int]int)
			for i, agg := range res.Aggregates {
				aggByRank[int(agg.Point[0])] = i
			}

			_, evalRanks := modelingRanksFor(sys)
			metrics := make([]measurement.Metric, 0, len(res.Models.Kernel))
			for metric := range res.Models.Kernel {
				metrics = append(metrics, metric)
			}
			sort.Slice(metrics, func(i, j int) bool { return metrics[i] < metrics[j] })
			for _, metric := range metrics {
				byPath := res.Models.Kernel[metric]
				for _, path := range sortedCallpaths(byPath) {
					model := byPath[path]
					group := table2Group(kinds[path])
					if group == "" {
						continue
					}
					key := Table2RowKey{Group: group, Metric: metric}
					c := cells[key]
					if c == nil {
						c = &cellErrors{errs: make(map[int][]float64)}
						cells[key] = c
					}
					c.models++
					for _, ranks := range evalRanks {
						idx, ok := aggByRank[ranks]
						if !ok {
							continue
						}
						agg := res.Aggregates[idx]
						k, ok := agg.Kernels[path]
						if !ok {
							continue
						}
						i := aggregate.MetricIndex(metric)
						if i < 0 || i >= len(k.Metrics()) {
							continue // the kernel does not record the metric
						}
						sv := k.Value[i]
						actual := epoch.KernelValue(sv, setup(agg.Point))
						if actual == 0 {
							continue
						}
						pred := model.Predict(float64(ranks))
						record(key, nodesOf(sys, ranks), mathutil.AbsPercentError(pred, actual))
					}
				}
			}
		}
	}

	out := &Table2Result{}
	for _, group := range []string{"CUDA kernels", "NVTX func.", "OS func.", "cuBLAS", "cuDNN", "MPI", "Memory ops."} {
		for _, metric := range table2Metrics(group) {
			key := Table2RowKey{Group: group, Metric: metric}
			c := cells[key]
			if c == nil {
				continue
			}
			row := Table2Row{Key: key, MPE: make(map[int]float64), Models: c.models}
			for _, n := range table2Nodes {
				if errs, ok := c.errs[n]; ok {
					row.MPE[n] = medianOf(errs)
				}
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Render formats Table 2.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("=== Table 2: MPE by model type at the evaluation points (data parallelism, both systems) ===\n\n")
	header := []string{"model type", "metric"}
	for _, n := range table2Nodes {
		header = append(header, fmt.Sprintf("%d", n))
	}
	header = append(header, "models")
	t := &Table{Header: header}
	for _, row := range r.Rows {
		cells := []string{row.Key.Group, string(row.Key.Metric)}
		for _, n := range table2Nodes {
			if v, ok := row.MPE[n]; ok {
				cells = append(cells, pct(v))
			} else {
				cells = append(cells, "-")
			}
		}
		cells = append(cells, fmt.Sprintf("%d", row.Models))
		t.AddRow(cells...)
	}
	b.WriteString(t.String())
	return b.String()
}
