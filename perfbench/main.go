// Command perfbench is the repository's end-to-end benchmark. It drives
// the two user paths through their public Go APIs in closed loops (one
// client, one op in flight):
//
//   - batch-grid: profile directory → report bytes through the staged
//     pipeline, over a two-parameter (ranks × batch) campaign on disk;
//   - serve-upload: time-to-model on a fresh in-process edserve — POST
//     the case-study corpus, wait for the fit campaign, GET /predict.
//
// Every op's output is checked against a reference computed in set-up
// from the seed. With --trace 0 the run prints the end-to-end metrics;
// with --trace 1 it times the calls into each layer, prints the
// per-layer metrics and the tracing overhead, and writes the spans to
// .bench_build/trace/. The last line of standard output is always one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload serve-upload --seed 3 --seconds 45 --trace 0
//	bash perfbench/run.sh --selfmodel --seed 1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart anchors the first set-up round: process start → first
// timed op.
var processStart = time.Now()

// buildDir is where scratch corpora and span files go, relative to the
// repository root the runner is started from.
const buildDir = ".bench_build"

// setupRounds is how many times a run sets up its workload; setup_s is
// the median round. The first round runs with cold process-wide caches.
const setupRounds = 5

// metricUnits names every metric the runner prints, with its unit.
var metricUnits = map[string]string{
	// End to end, printed with --trace 0.
	"latency_p50_ms":   "ms",
	"latency_tail_ms":  "ms",
	"throughput_per_s": "1/s",
	"alloc_mb_per_op":  "MB",
	"max_rss_mb":       "MB",
	"setup_s":          "s",

	// Per layer, printed with --trace 1.
	"ingest.busy_ms":           "ms",
	"ingest.mb_per_s":          "MB/s",
	"ingest.files":             "count",
	"ingest.quarantined":       "count",
	"ingest.alloc_mb":          "MB",
	"aggregate.busy_ms":        "ms",
	"aggregate.configurations": "count",
	"aggregate.alloc_mb":       "MB",
	"epoch.busy_ms":            "ms",
	"fit.busy_ms":              "ms",
	"fit.tasks":                "count",
	"fit.fitted_ratio":         "ratio",
	"fit.us_per_task":          "us",
	"fit.alloc_mb":             "MB",
	"analyze.busy_ms":          "ms",
	"report.busy_ms":           "ms",
	"report.bytes":             "bytes",
	"upload.post_ms":           "ms",
	"upload.envelope_mb":       "MB",
	"upload.decode_ms":         "ms",
	"upload.rejected":          "count",
	"campaign.wait_ms":         "ms",
	"campaign.count":           "count",
	"campaign.ingest_ms":       "ms",
	"campaign.fit_ms":          "ms",
	"campaign.errors":          "count",
	"snapshot.first_query_ms":  "ms",
}

// endToEnd lists the --trace 0 metrics in print order.
var endToEnd = []string{"latency_p50_ms", "latency_tail_ms", "throughput_per_s", "alloc_mb_per_op", "max_rss_mb", "setup_s"}

// perLayer lists the --trace 1 metrics: every metric not end to end.
func perLayer() []string {
	e2e := map[string]bool{}
	for _, n := range endToEnd {
		e2e[n] = true
	}
	var out []string
	for n := range metricUnits {
		if !e2e[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// workload is one closed-loop benchmark workload. A run calls setup
// setupRounds times (release in between), then loops before → op →
// verify → release until its time is up; only op is timed.
type workload interface {
	// setup builds one round's inputs and references from the seed and
	// runs the warm-up ops.
	setup(e *env) error
	// before prepares the next op outside the timed region.
	before(c *opCtx) error
	// op is the timed operation.
	op(c *opCtx) (any, error)
	// verify checks an op's output against the set-up reference.
	verify(out any) error
	// release frees per-op state outside the timed region; it is also
	// called between set-up rounds and at exit.
	release() error
	// layers derives the per-layer metrics from a traced phase's spans.
	layers(spans []span) map[string]float64
}

// env is what a set-up round gets.
type env struct {
	seed  int64
	work  string // scratch directory, removed at exit
	round int
}

// opCtx identifies one op and, in a traced phase, its root span.
type opCtx struct {
	tr   *tracer
	id   int
	root *active
}

// begin opens a child span of the op's root span.
func (c *opCtx) begin(name string) *active { return c.tr.begin(c.id, c.root.id(), name) }

// workloads maps names to constructors.
var workloads = map[string]func() workload{
	"batch-grid":   func() workload { return newBatchGrid(gridRanks, gridBatches, gridVariants) },
	"serve-upload": func() workload { return &serveUpload{} },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the runner's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: batch-grid or serve-upload")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long the timed loop runs")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics, tracing overhead and a span file")
	selfModel := fs.Bool("selfmodel", false, "sweep batch-grid's configuration count and rank the layers by fitted growth (not a gated workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !*selfModel && (workloads[*name] == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1)) {
		sayln(stderr, "perfbench: need --workload batch-grid|serve-upload, --seconds ≥ 1 and --trace 0|1")
		return 2
	}
	label := *name
	if *selfModel {
		label = "selfmodel"
	}
	work, err := workDir(label)
	if err != nil {
		sayln(stderr, "perfbench:", err)
		return 1
	}
	defer func() {
		if err := os.RemoveAll(work); err != nil {
			sayln(stderr, "perfbench: removing scratch directory:", err)
		}
	}()

	if *selfModel {
		if err := runSelfModel(stdout, stderr, work, *seed); err != nil {
			sayln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := measure(stdout, stderr, workloads[*name](), *name, env{seed: *seed, work: work}, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		sayln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		sayln(stderr, "perfbench:", err)
		return 1
	}
	if _, err := fmt.Fprintln(stdout, string(line)); err != nil {
		return 1
	}
	return 0
}

// workDir creates this process's scratch directory under .bench_build.
func workDir(name string) (string, error) {
	dir := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scratch directory: %w", err)
	}
	return dir, nil
}

// phase is the outcome of one timed loop.
type phase struct {
	lat       []time.Duration // successful ops, in the order they ran
	attempted int
	failed    int
	timed     int    // ops that reached op
	alloc     uint64 // sum of TotalAlloc deltas over the timed ops alone
}

// measure sets the workload up, runs its timed loop(s) and assembles the
// result.
func measure(stdout, stderr io.Writer, w workload, name string, e env, dur time.Duration, traced bool) (*result, error) {
	setups, err := setUp(w, e)
	defer func() {
		if rerr := w.release(); rerr != nil {
			sayln(stderr, "perfbench: releasing workload:", rerr)
		}
	}()
	if err != nil {
		return nil, err
	}
	sayf(stdout, "workload %s  seed %d  nproc %d  GOMAXPROCS %d  %s\n",
		name, e.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	opID := 0
	if !traced {
		ph := loop(stderr, w, dur, nil, &opID)
		return endToEndResult(stdout, ph, setups), nil
	}

	// Traced run: an untraced half, then a traced half of the same
	// process; the difference of their medians is the tracing overhead.
	plain := loop(stderr, w, dur/2, nil, &opID)
	tr := newTracer()
	withSpans := loop(stderr, w, dur-dur/2, tr, &opID)
	spans := tr.snapshot()
	path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", name, e.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	p50Plain, p50Traced := median(millis(plain.lat)), median(millis(withSpans.lat))
	sayf(stdout, "tracing overhead: latency_p50_ms traced %.4f - untraced %.4f = %+.4f ms (%d vs %d ops)\n",
		p50Traced, p50Plain, p50Traced-p50Plain, len(withSpans.lat), len(plain.lat))
	sayf(stdout, "spans: %d written to %s\n", len(spans), path)

	layers := w.layers(spans)
	res := &result{
		Attempted: plain.attempted + withSpans.attempted,
		Failed:    plain.failed + withSpans.failed,
		Metrics:   map[string]metric{},
	}
	for _, n := range perLayer() {
		v, measured := layers[n]
		res.Metrics[n] = metric{Value: v, Unit: metricUnits[n]}
		note := ""
		if !measured {
			note = "  (layer not on this workload's path)"
		}
		sayf(stdout, "  %-26s %14.4f %s%s\n", n, v, metricUnits[n], note)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// setUp runs the set-up rounds and returns each round's duration in
// seconds. Round one starts at process start, so it includes runtime
// start-up and cold process-wide caches.
func setUp(w workload, e env) ([]float64, error) {
	var out []float64
	start := processStart
	for r := 0; r < setupRounds; r++ {
		if r > 0 {
			if err := w.release(); err != nil {
				return nil, fmt.Errorf("releasing set-up round %d: %w", r, err)
			}
			runtime.GC()
			start = time.Now()
		}
		e.round = r
		if err := w.setup(&e); err != nil {
			return nil, fmt.Errorf("set-up round %d: %w", r+1, err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	runtime.GC()
	return out, nil
}

// loop runs ops until dur has passed. Failed ops are counted and the
// first few reported on stderr.
func loop(stderr io.Writer, w workload, dur time.Duration, tr *tracer, opID *int) phase {
	var ph phase
	ph.lat = make([]time.Duration, 0, 1<<16)
	start := time.Now()
	for time.Since(start) < dur {
		c := &opCtx{tr: tr, id: *opID}
		*opID++
		ph.attempted++
		err := w.before(c)
		if err == nil {
			a0 := totalAlloc()
			t0 := time.Now()
			c.root = tr.begin(c.id, 0, "op")
			var out any
			out, err = w.op(c)
			c.root.end()
			d := time.Since(t0)
			ph.alloc += totalAlloc() - a0
			ph.timed++
			if err == nil {
				err = w.verify(out)
			}
			if err == nil {
				ph.lat = append(ph.lat, d)
			}
		}
		err = errors.Join(err, w.release())
		if err != nil {
			ph.failed++
			if ph.failed <= 3 {
				sayf(stderr, "perfbench: op %d failed: %v\n", c.id, err)
			}
		}
	}
	return ph
}

// endToEndResult turns an untraced phase into the end-to-end metrics.
func endToEndResult(stdout io.Writer, ph phase, setups []float64) *result {
	lat := millis(ph.lat)
	t := tailOf(lat)
	chunks := chunkThroughputs(ph.lat)
	vals := map[string]float64{
		"latency_p50_ms":   median(lat),
		"latency_tail_ms":  t.Value,
		"throughput_per_s": median(chunks),
		"alloc_mb_per_op":  ratio(float64(ph.alloc)/1e6, float64(ph.timed)),
		"max_rss_mb":       maxRSSMB(),
		"setup_s":          median(setups),
	}
	res := &result{Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	res.Correct = ph.failed == 0 && ph.attempted > 0
	sayf(stdout, "ops: %d attempted, %d failed\n", ph.attempted, ph.failed)
	for _, n := range endToEnd {
		res.Metrics[n] = metric{Value: vals[n], Unit: metricUnits[n]}
		sayf(stdout, "  %-18s %14.4f %s\n", n, vals[n], metricUnits[n])
	}
	sayf(stdout, "  latency_tail_ms is p%d of %d ops (%d beyond it)\n", t.Percentile, t.N, t.Beyond)
	sayf(stdout, "  throughput_per_s is the median of %d consecutive op groups [%s] 1/s\n", len(chunks), joined(chunks))
	sayf(stdout, "  setup_s is the median of %d rounds [%s] s; the first ran with cold caches\n", len(setups), joined(setups))
	return res
}

// sayf and sayln print best effort: the human-readable lines and the
// diagnostics have no recovery if the write fails; only the final result
// line's write is checked.
func sayf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func sayln(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

func joined(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(s, " ")
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
