package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"extradeep/internal/analysis"
	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
)

// Extra-Deep applied to itself: the self-model mode sweeps batch-grid's
// configuration count, fits each layer's busy time against it with the
// PMNF search and ranks the layers by fitted growth, as the paper's Q3
// ranks kernels. It is not a gated workload.

// selfModelSides are the sweep's grid sides: a k×k grid of rank counts
// {2, 4, …, 2k} and batch sizes {32, 64, …, 32k} gives 25, 36, 49, 64 and
// 81 configurations, the five points a single-parameter fit needs.
var selfModelSides = []int{5, 6, 7, 8, 9}

// selfModelLayers are the layers whose busy time the sweep models.
var selfModelLayers = []string{"ingest", "aggregate", "epoch", "fit", "analyze", "report"}

// selfModelReference is the configuration count the ranking extrapolates
// to, beyond the measured range.
const selfModelReference = 200

// selfModelPoint is how long the traced loop runs at each sweep point.
const selfModelPoint = 2 * time.Second

func runSelfModel(stdout, stderr io.Writer, work string, seed int64) error {
	var points []measurement.Point
	busyMs := map[string][]float64{}
	opID := 0
	sayf(stdout, "self-model sweep: batch-grid, seed %d, busy_ms per layer (median op)\n", seed)
	for _, k := range selfModelSides {
		ranks, batches := make([]int, k), make([]int, k)
		for i := range ranks {
			ranks[i], batches[i] = 2*(i+1), 32*(i+1)
		}
		configs := float64(k * k)
		w := newBatchGrid(ranks, batches, 1)
		if err := w.setup(&env{seed: seed, work: work, round: k}); err != nil {
			return fmt.Errorf("%.0f configurations: %w", configs, err)
		}
		tr := newTracer()
		ph := loop(stderr, w, selfModelPoint, tr, &opID)
		if ph.failed > 0 {
			return fmt.Errorf("%.0f configurations: %d of %d ops failed", configs, ph.failed, ph.attempted)
		}
		if err := os.RemoveAll(w.corpora[0].dir); err != nil {
			return err
		}
		layers := w.layers(tr.snapshot())
		points = append(points, measurement.Point{configs})
		sayf(stdout, "  %3.0f configurations, %3d ops:", configs, ph.attempted)
		for _, l := range selfModelLayers {
			v := layers[l+".busy_ms"]
			busyMs[l] = append(busyMs[l], v)
			sayf(stdout, "  %s %.3f", l, v)
		}
		sayln(stdout)
	}

	models := map[string]*modeling.Model{}
	for _, l := range selfModelLayers {
		m, err := modeling.Fit(points, busyMs[l], modeling.DefaultOptions())
		if err != nil {
			return fmt.Errorf("fitting %s busy time: %w", l, err)
		}
		models[l] = m
	}
	ref := measurement.Point{selfModelReference}
	sayf(stdout, "layers ranked by growth of busy_ms from %.0f to %d configurations (x = configurations):\n", points[0][0], selfModelReference)
	for i, r := range analysis.RankByGrowth(models, points[0], ref) {
		sayf(stdout, "  %d. %-9s %-14s x%-8.2f %9.1f ms at x=%d   %s  (SMAPE %.1f%%)\n",
			i+1, r.Callpath, r.Growth, r.GrowthFactor, r.ValueAtReference, selfModelReference, r.Model.Function, r.Model.SMAPE)
	}
	return nil
}
