// Command edserve runs Extra-Deep as a long-lived modeling service: an
// HTTP server that accepts profile uploads, maintains fitted performance
// models per application, and answers prediction, speedup, efficiency
// and cost queries (Eqs. 11–14) from a model cache — so one measurement
// campaign can feed many questions without re-running batch analyses.
//
// Usage:
//
//	edserve -listen 127.0.0.1:8080 -spool /var/lib/edserve \
//	        -benchmark cifar10 [-checkpoint-dir /var/lib/edserve-ckpt -resume]
//
// Endpoints (all JSON unless noted):
//
//	GET  /v1/health                     liveness + application count
//	GET  /v1/apps                       application listing with fit state
//	GET  /v1/apps/{app}/status          one application's fit state
//	POST /v1/apps/{app}/profiles        upload a batch of profile files
//	GET  /v1/apps/{app}/models          fitted models (canonical model-file JSON)
//	GET  /v1/apps/{app}/report          rendered text report (text/plain)
//	GET  /v1/apps/{app}/predict?x=N     training time per epoch at N ranks
//	GET  /v1/apps/{app}/speedup?x=N     Eq. 11 achieved vs Eq. 13 theoretical
//	GET  /v1/apps/{app}/efficiency?x=N  Eq. 13 parallel efficiency
//	GET  /v1/apps/{app}/cost?x=N        Eq. 14 training cost in core-hours
//
// Upload batches are atomic: every file is validated with the same
// read/decode/validate classification the batch ingester uses, and one
// bad file refuses the whole batch (422 with per-file stage detail)
// leaving the store unchanged. Bursts of uploads to one application
// coalesce into a single re-fit campaign (-coalesce widens the window);
// with -checkpoint-dir and -resume, re-fits reuse every fit task whose
// inputs did not change.
//
// Error responses carry an exit_equivalent field mapping each failure
// onto the batch CLI's exit-code taxonomy (0 success, 1 internal,
// 2 request error, 3 no usable data); degraded (partial) fits are
// reported in-band via "degraded": true, the exit-4 analog.
//
// On SIGINT/SIGTERM the server stops accepting connections, drains
// in-flight fit campaigns (bounded by -drain-timeout), and exits 0; an
// interrupted campaign's checkpoints are resumable, so a restart with
// -resume converges to identical models without refitting finished work.
//
// Exit codes: 0 — clean shutdown; 1 — runtime failure (bind, spool scan);
// 2 — flag or usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"extradeep/internal/pipeline"
	"extradeep/internal/resilience"
	"extradeep/internal/serve"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// say and sayf print best-effort to the chosen writer; a failed
// diagnostic write has no recovery path in a server binary.
func sayf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// run executes the command until ctx is cancelled (the signal handler)
// and returns the process exit code. Tests drive it with their own
// context and writers, including the full boot → serve → drain cycle.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:8080", "address to serve HTTP on")
	spoolDir := fs.String("spool", "spool", "directory profile uploads are spooled under (the server's durable state)")
	checkpointDir := fs.String("checkpoint-dir", "", "store every application's fit tasks as content-keyed records in this directory")
	resume := fs.Bool("resume", false, "reuse checkpointed fit tasks across campaigns and restarts (content-keyed)")
	benchmark := fs.String("benchmark", "", "built-in benchmark name to derive training-setup values from")
	strategyName := fs.String("strategy", "data", "parallel strategy the profiles were produced with")
	weak := fs.Bool("weak", true, "profiles come from weak-scaling runs")
	batch := fs.Float64("batch", 0, "per-worker batch size B (overrides -benchmark)")
	trainSamples := fs.Float64("train-samples", 0, "training-set size D_t (overrides -benchmark)")
	valSamples := fs.Float64("val-samples", 0, "validation-set size D_v (overrides -benchmark)")
	modelParallel := fs.Float64("model-parallel", 1, "degree of model parallelism M")
	systemName := fs.String("system", "DEEP", "system the profiles were measured on (for ϱ of the cost model)")
	topKernels := fs.Int("top", 10, "number of kernels to list in report bottleneck rankings")
	jobs := fs.Int("j", 0, "worker parallelism for upload validation and each campaign's decode and fit: 0 = all cores")
	maxCampaigns := fs.Int("max-campaigns", 0, "concurrent fit campaigns across applications (0 = default of 2)")
	coalesce := fs.Duration("coalesce", 0, "window to coalesce an upload burst into one re-fit campaign")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request deadline budget (0 = default of 30s, negative disables)")
	stageTimeout := fs.Duration("stage-timeout", 0, "deadline budget per campaign stage attempt (0 = none)")
	retries := fs.Int("retries", 0, "attempts per campaign stage for transient failures (0 = default of 3)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight fit campaigns")
	timings := fs.Bool("timings", false, "log per-stage campaign timings and counters to stderr")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	usage := func(err error) int {
		sayf(stderr, "edserve: %v\n", err)
		return exitUsage
	}
	fail := func(err error) int {
		sayf(stderr, "edserve: %v\n", err)
		return exitFailure
	}

	if *resume && *checkpointDir == "" {
		return usage(errors.New("-resume requires -checkpoint-dir"))
	}
	strat, err := parallel.ByName(*strategyName)
	if err != nil {
		return usage(err)
	}
	setup, err := engine.SetupFromFlags(*benchmark, strat, *weak, *batch, *trainSamples, *valSamples, *modelParallel)
	if err != nil {
		return usage(err)
	}
	sys, err := hardware.ByName(*systemName)
	if err != nil {
		return usage(err)
	}

	pcfg := pipeline.Config{
		Workers:      *jobs,
		Retry:        resilience.RetryPolicy{MaxAttempts: *retries},
		StageTimeout: *stageTimeout,
		Resume:       *resume,
	}
	if *timings {
		pcfg.Observer = &pipeline.LogObserver{W: stderr}
	}
	if *checkpointDir != "" {
		pcfg.Checkpoint = &resilience.Store{Dir: *checkpointDir}
	}
	srv, err := serve.New(serve.Config{
		Config:         pcfg,
		SpoolDir:       *spoolDir,
		Setup:          setup,
		Analyze:        pipeline.AnalyzeOptions{CoresPerRank: float64(sys.CoresPerRank), TopKernels: *topKernels},
		MaxCampaigns:   *maxCampaigns,
		CoalesceWindow: *coalesce,
		RequestTimeout: *requestTimeout,
	})
	if err != nil {
		return usage(err)
	}

	// Bind before Start so a bad -listen fails fast, and so tests using
	// port 0 can read the bound address from stdout.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(err)
	}
	if err := srv.Start(ctx); err != nil {
		_ = ln.Close()
		return fail(err)
	}
	sayf(stdout, "edserve: listening on http://%s (spool %s)\n", ln.Addr(), *spoolDir)

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died underneath us; still drain running campaigns
		// so their checkpoints land.
		_ = srv.Drain(context.Background())
		return fail(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, finish in-flight requests, then
	// drain fit campaigns so checkpoint state is fully persisted.
	sayf(stdout, "edserve: shutting down\n")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := exitOK
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		sayf(stderr, "edserve: http shutdown: %v\n", err)
		code = exitFailure
	}
	if err := srv.Drain(shutdownCtx); err != nil {
		sayf(stderr, "edserve: %v\n", err)
		code = exitFailure
	}
	sayf(stdout, "edserve: drained\n")
	return code
}
