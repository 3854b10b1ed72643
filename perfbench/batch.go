package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"

	"extradeep/internal/aggregate"
	"extradeep/internal/core"
	"extradeep/internal/epoch"
	"extradeep/internal/ingest"
	"extradeep/internal/modeling"
	"extradeep/internal/pipeline"
	"extradeep/internal/simulator/engine"
)

// batchGrid is the batch path from a profile directory to report bytes:
// Pipeline.Ingest → Aggregate → BuildModels → Analyze → RenderContext
// over a two-parameter campaign, as the extradeep CLI runs it.
type batchGrid struct {
	ranks, batches []int
	variants       int

	setupFn epoch.SetupFunc
	corpora []gridCorpusRef
}

// gridCorpusRef is one campaign on disk and its reference output.
type gridCorpusRef struct {
	dir       string
	bytes     int64
	refModels []byte
	refReport string
}

// gridVariants is how many campaigns, each simulated from its own seed
// derived from the run's seed, batch-grid's ops cycle through. How long a
// fit takes depends on the simulated measurements, so one campaign per
// run would make the run's median follow its seed; cycling through
// several averages that out.
const gridVariants = 4

func newBatchGrid(ranks, batches []int, variants int) *batchGrid {
	return &batchGrid{ranks: ranks, batches: batches, variants: variants}
}

// gridWarmups is how many checked ops each set-up round runs per campaign,
// after the reference run.
const gridWarmups = 1

var gridIngest = ingest.Options{Policy: ingest.Lenient}

func (w *batchGrid) pipeline(obs pipeline.Observer) *pipeline.Pipeline {
	return pipeline.New(pipeline.Config{
		Aggregation: aggregate.DefaultOptions(),
		Modeling:    modeling.StrongScalingOptions(),
		Observer:    obs,
	})
}

func (w *batchGrid) setup(e *env) error {
	b, err := engine.ByName(benchmarkName)
	if err != nil {
		return err
	}
	w.setupFn = core.GridSetup(b, runConfig(e.seed, 1))
	w.corpora = make([]gridCorpusRef, w.variants)
	for v := range w.corpora {
		if err := w.setupCorpus(&w.corpora[v], e, v); err != nil {
			return fmt.Errorf("campaign %d: %w", v, err)
		}
	}
	for i := 0; i < gridWarmups*w.variants; i++ {
		out, err := w.op(&opCtx{id: i})
		if err == nil {
			err = w.verify(out)
		}
		if err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
	}
	return nil
}

// setupCorpus simulates campaign v, writes it out and records its
// reference.
func (w *batchGrid) setupCorpus(c *gridCorpusRef, e *env, v int) error {
	files, err := gridCorpus(e.seed*1000+int64(v), w.ranks, w.batches)
	if err != nil {
		return err
	}
	c.dir = filepath.Join(e.work, fmt.Sprintf("grid-%d-%d", e.round, v))
	if c.bytes, err = writeCorpus(c.dir, files); err != nil {
		return err
	}
	// The reference comes from the one-shot Pipeline.Run over the same
	// directory, so each op also cross-checks the staged calls.
	res, err := w.pipeline(nil).Run(context.Background(), pipeline.RunSpec{
		ProfilesDir: c.dir,
		Format:      "json",
		Ingest:      gridIngest,
		Setup:       w.setupFn,
		Analyze:     analyzeOptions(),
	})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if c.refModels, err = core.EncodeModels(res.Models); err != nil {
		return err
	}
	c.refReport = res.Report
	return nil
}

// before starts every op from a collected heap, as a fresh CLI run would.
func (w *batchGrid) before(*opCtx) error {
	runtime.GC()
	return nil
}

// gridOut is one op's output.
type gridOut struct {
	corpus *gridCorpusRef
	models *pipeline.ModelSet
	report string
}

// op runs the staged calls. In a traced phase every stage span comes
// from the pipeline's Observer, under the op's root span, and the root
// records the corpus size for ingest.mb_per_s.
func (w *batchGrid) op(c *opCtx) (any, error) {
	corpus := &w.corpora[c.id%len(w.corpora)]
	var obs pipeline.Observer
	if c.tr != nil {
		stages := newStageSpans(c.tr, "")
		stages.attach(c.id, c.root.id())
		obs = stages
		c.root.count("corpus_bytes", float64(corpus.bytes))
	}
	pl := w.pipeline(obs)
	ctx := context.Background()

	rep, err := pl.Ingest(ctx, corpus.dir, "json", gridIngest)
	if err != nil {
		return nil, err
	}
	if err := rep.Gate(gridIngest); err != nil {
		return nil, err
	}
	aggs, err := pl.Aggregate(ctx, rep.Profiles)
	if err != nil {
		return nil, err
	}
	models, err := pl.BuildModels(ctx, aggs, w.setupFn)
	if err != nil {
		return nil, err
	}
	ares, err := pl.Analyze(ctx, models, aggs, analyzeOptions())
	if err != nil {
		return nil, err
	}
	text, err := pl.RenderContext(ctx, ares)
	if err != nil {
		return nil, err
	}
	return gridOut{corpus: corpus, models: models, report: text}, nil
}

// errMismatch marks an op whose output differs from the reference.
var errMismatch = errors.New("output differs from the reference")

func (w *batchGrid) verify(out any) error {
	o, ok := out.(gridOut)
	if !ok {
		return fmt.Errorf("batch-grid: unexpected output %T", out)
	}
	got, err := core.EncodeModels(o.models)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, o.corpus.refModels) {
		return fmt.Errorf("batch-grid models: %w", errMismatch)
	}
	if o.report != o.corpus.refReport {
		return fmt.Errorf("batch-grid report: %w", errMismatch)
	}
	return nil
}

func (w *batchGrid) release() error { return nil }

// gridLayers are batch-grid's per-layer metrics.
var gridLayers = []layerMetric{
	{name: "ingest.busy_ms", span: "ingest", value: busy},
	{name: "ingest.files", span: "ingest", value: counter("loaded")},
	{name: "ingest.quarantined", span: "ingest", value: counter("quarantined")},
	{name: "ingest.alloc_mb", span: "ingest", value: mb("alloc_bytes")},
	{name: "aggregate.busy_ms", span: "aggregate", value: busy},
	{name: "aggregate.configurations", span: "aggregate", value: counter("configurations")},
	{name: "aggregate.alloc_mb", span: "aggregate", value: mb("alloc_bytes")},
	{name: "epoch.busy_ms", span: "epoch", value: busy},
	{name: "fit.busy_ms", span: "fit", value: busy},
	{name: "fit.tasks", span: "fit", value: counter("tasks")},
	{name: "fit.fitted_ratio", span: "fit", value: func(s span, _ float64) float64 {
		return ratio(s.Counters["fitted"], s.Counters["tasks"])
	}},
	{name: "fit.us_per_task", span: "fit", value: func(s span, selfMs float64) float64 {
		return ratio(selfMs*1e3, s.Counters["tasks"])
	}},
	{name: "fit.alloc_mb", span: "fit", value: mb("alloc_bytes")},
	{name: "analyze.busy_ms", span: "analyze", value: busy},
	{name: "report.busy_ms", span: "report", value: busy},
	{name: "report.bytes", span: "report", value: counter("bytes")},
}

func (w *batchGrid) layers(spans []span) map[string]float64 {
	out := evalLayers(spans, gridLayers)
	out["ingest.mb_per_s"] = ingestRate(spans)
	return out
}

// ingestRate is the median over ops of the corpus size, recorded on the
// op's root span, over the ingest span's self time, in MB/s.
func ingestRate(spans []span) float64 {
	self := selfTimes(spans)
	corpusBytes := map[int]float64{}
	for _, s := range spans {
		if s.Name == "op" {
			corpusBytes[s.Op] = s.Counters["corpus_bytes"]
		}
	}
	var rates []float64
	for _, s := range spans {
		if s.Name == "ingest" {
			rates = append(rates, ratio(corpusBytes[s.Op]/1e6, float64(self[s.ID])/1e9))
		}
	}
	return median(rates)
}
