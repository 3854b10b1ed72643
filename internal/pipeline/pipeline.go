// Package pipeline is the staged analysis core of Extra-Deep: it models
// the end-to-end run of Fig. 2 and Section 3 as typed stages
//
//	Ingest → Aggregate → EpochExtrapolate → Fit → Analyze → Report
//
// sharing one context.Context, with per-stage timing and counters exposed
// through an observer hook and a bounded worker pool (ForEach) that fans
// the per-file profile decode, the per-configuration aggregation and the
// per-kernel PMNF hypothesis search (one task per kernel × metric) out
// across goroutines.
//
// Determinism guarantee: for identical inputs, a pipeline run with any
// worker count produces output byte-identical to the sequential run.
// Every fit task is a pure function of its series; tasks are enumerated
// in sorted (metric, callpath) order, results land in pre-sized slots
// indexed by task, and all reductions iterate in that fixed order — no
// scheduling-dependent tie-break can reach the output.
package pipeline

import (
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"extradeep/internal/aggregate"
	"extradeep/internal/modeling"
	"extradeep/internal/resilience"
)

// Stage names one phase of the analysis pipeline. The constants below are
// the built-in stages; embedders (e.g. edbench) may observe ad-hoc stages
// under their own names.
type Stage string

// The built-in pipeline stages, in execution order.
const (
	// StageIngest loads and gates the profile set (fault-tolerant, see
	// internal/ingest).
	StageIngest Stage = "ingest"
	// StageAggregate runs the Fig. 2 preprocessing per configuration.
	StageAggregate Stage = "aggregate"
	// StageEpoch extrapolates sampled step measurements to full epochs
	// (Eqs. 2–4) and assembles the kernel/application experiments.
	StageEpoch Stage = "epoch"
	// StageFit searches the PMNF hypothesis space per kernel × metric
	// (Eq. 5) — the hot path the worker pool parallelizes.
	StageFit Stage = "fit"
	// StageAnalyze derives scalability, efficiency, cost and bottleneck
	// results from the fitted models (Section 3).
	StageAnalyze Stage = "analyze"
	// StageReport renders the analysis into the text report.
	StageReport Stage = "report"
)

// Counters carries per-stage item counts, e.g. profiles loaded, fit tasks
// executed, models kept or skipped.
type Counters map[string]int

// StageStats summarizes one completed (or failed) stage execution.
type StageStats struct {
	// Stage identifies the stage.
	Stage Stage
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// Counters holds the stage's item counts (nil when it has none).
	Counters Counters
	// Err is the error the stage returned, nil on success.
	Err error
}

// Observer receives stage lifecycle events. Implementations must be safe
// for use from a single goroutine (the pipeline serializes all calls);
// StageStart is always followed by exactly one StageDone for that stage
// invocation, in nesting order.
type Observer interface {
	// StageStart fires before the stage body runs.
	StageStart(Stage)
	// StageDone fires after the stage body returned, with its stats.
	StageDone(StageStats)
}

// nopObserver discards all events; it backs a nil Config.Observer.
type nopObserver struct{}

func (nopObserver) StageStart(Stage)     {}
func (nopObserver) StageDone(StageStats) {}

// LogObserver writes one line per completed stage to an io.Writer — the
// CLI's -timings view. Failed writes are deliberately discarded (a CLI
// diagnostic stream has no recovery path).
type LogObserver struct {
	W io.Writer
}

// StageStart implements Observer.
func (o *LogObserver) StageStart(Stage) {}

// StageDone implements Observer.
func (o *LogObserver) StageDone(s StageStats) {
	if o.W == nil {
		return
	}
	_, _ = io.WriteString(o.W, "stage "+string(s.Stage)+": "+s.Duration.Round(time.Microsecond).String())
	for _, k := range sortedCounterKeys(s.Counters) {
		_, _ = io.WriteString(o.W, "  "+k+"="+strconv.Itoa(s.Counters[k]))
	}
	if s.Err != nil {
		_, _ = io.WriteString(o.W, "  error="+s.Err.Error())
	}
	_, _ = io.WriteString(o.W, "\n")
}

// Collector records every stage event, for tests and embedders that want
// the timings after the fact. It is safe for concurrent use.
type Collector struct {
	mu    sync.Mutex
	stats []StageStats
}

// StageStart implements Observer.
func (c *Collector) StageStart(Stage) {}

// StageDone implements Observer.
func (c *Collector) StageDone(s StageStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = append(c.stats, s)
}

// Stats returns a copy of the recorded stage stats in completion order.
func (c *Collector) Stats() []StageStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]StageStats(nil), c.stats...)
}

// Last returns the most recently completed stage's stats (zero value when
// nothing completed yet).
func (c *Collector) Last() StageStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.stats) == 0 {
		return StageStats{}
	}
	return c.stats[len(c.stats)-1]
}

// Observe runs fn as one observed stage: StageStart, the body, StageDone
// with duration, counters and error. It is exported so embedders (edbench)
// can time their own ad-hoc stages with the same contract the built-in
// stages use. A nil observer is allowed.
func Observe(obs Observer, s Stage, fn func() (Counters, error)) error {
	if obs == nil {
		obs = nopObserver{}
	}
	obs.StageStart(s)
	//edlint:ignore wallclock observer layer: stage durations are diagnostics on stderr, never model inputs
	start := time.Now()
	counters, err := fn()
	//edlint:ignore wallclock observer layer: the duration feeds StageDone telemetry only
	obs.StageDone(StageStats{Stage: s, Duration: time.Since(start), Counters: counters, Err: err})
	return err
}

// Config assembles a pipeline.
type Config struct {
	// Workers bounds the worker pool every fan-out stage runs on — the
	// ingest stage's per-file read/decode/validate, the per-configuration
	// aggregation and the per-kernel fit: 1 runs strictly sequentially
	// (the -j 1 mode), N > 1 uses at most N goroutines, and 0 defaults to
	// runtime.GOMAXPROCS(0). Output is byte-identical for every value.
	Workers int
	// Aggregation configures the Fig. 2 preprocessing; the zero value
	// means aggregate.DefaultOptions().
	Aggregation aggregate.Options
	// Modeling configures the PMNF hypothesis search; unset options mean
	// modeling.DefaultOptions().
	Modeling modeling.Options
	// Observer receives stage timing/counter events; nil discards them.
	Observer Observer

	// Injector fires scheduled runtime faults at stage and fit-task
	// injection points; nil (the production default) reduces the hook to
	// a context check.
	Injector *resilience.Injector
	// StageTimeout is the deadline budget of every stage, which runs
	// once: a stage that overruns it fails with a retryable-class error.
	// 0 disables stage deadlines.
	StageTimeout time.Duration
	// Clock paces stage deadlines and injected stalls; nil means the
	// wall clock. Tests substitute a resilience.FakeClock for
	// deterministic schedules.
	Clock resilience.Clock
	// CheckpointDir persists every completed fit task as its own record
	// file in this directory, created by each fit stage; "" disables it.
	// Records are a verified cache: a missing or damaged one refits its
	// task, and a failed write is not an error.
	CheckpointDir string
	// Resume reuses stored task records from CheckpointDir. Reuse is
	// content-keyed per task — any change to a task's inputs or the
	// modeling options invalidates its record — so a resumed run is
	// byte-identical to an uninterrupted one, and a campaign reuses every
	// task it shares with an earlier one. Without Resume the store is
	// still written, but stored records are ignored (a fresh campaign).
	Resume bool
}

// Pipeline drives the staged analysis. The zero value is not usable; use
// New.
type Pipeline struct {
	cfg Config
	obs Observer
}

// New returns a pipeline over the given configuration, substituting
// defaults for zero-valued aggregation/modeling options.
func New(cfg Config) *Pipeline {
	if cfg.Observer == nil {
		cfg.Observer = nopObserver{}
	}
	if cfg.Aggregation == (aggregate.Options{}) {
		cfg.Aggregation = aggregate.DefaultOptions()
	}
	if cfg.Modeling.Unset() {
		cfg.Modeling = modeling.DefaultOptions()
	}
	return &Pipeline{cfg: cfg, obs: cfg.Observer}
}

// Workers resolves the configured worker bound to a concrete count ≥ 1.
func (p *Pipeline) Workers() int { return resolveWorkers(p.cfg.Workers) }

func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// observe runs fn as a built-in stage of this pipeline.
func (p *Pipeline) observe(s Stage, fn func() (Counters, error)) error {
	return Observe(p.obs, s, fn)
}

// sortedCounterKeys returns counter keys in stable order.
func sortedCounterKeys(c Counters) []string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
