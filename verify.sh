#!/bin/sh
# verify.sh — the pre-PR gate: format, vet, build, race-enabled tests, and
# the project-native static-analysis suite. Every step must pass before a
# change ships; ROADMAP.md documents this as the tier-1 contract.
set -eu

cd "$(dirname "$0")"

# Failure classification: every stage declares its name and class via
# begin() before running, and the single EXIT trap below both cleans up
# every temp artifact and — on a non-zero exit — prints one machine-
# greppable line naming the stage and the failure class (build / test /
# lint / budget-exceeded), so a red gate is diagnosable from the last
# line of output alone.
stage="startup"
class="build"
cover_current=""
lint_bin=""
lint_cache=""
fit_bin=""
serve_bin=""
serve_out=""

cleanup() {
	code=$?
	[ -n "$cover_current" ] && rm -f "$cover_current"
	[ -n "$lint_bin" ] && rm -f "$lint_bin"
	[ -n "$lint_cache" ] && rm -rf "$lint_cache"
	[ -n "$fit_bin" ] && rm -f "$fit_bin"
	[ -n "$serve_bin" ] && rm -f "$serve_bin"
	[ -n "$serve_out" ] && rm -f "$serve_out"
	if [ "$code" -ne 0 ]; then
		echo "verify.sh: FAILED stage=$stage class=$class" >&2
	fi
	exit "$code"
}
trap cleanup EXIT

# begin <stage> <class> <banner>
begin() {
	stage=$1
	class=$2
	echo "==> $3"
}

begin gofmt lint "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

begin vet lint "go vet ./..."
go vet ./...

begin build build "go build ./..."
go build ./...

# perfbench is its own module (the gated end-to-end benchmark), so the
# vet and build stages above never compile it: a break in an API it uses
# (serve.Config, core.GridSetup, core.EncodeModels, ...) would otherwise
# only surface when the benchmark runs. go vet type-checks every package
# without writing a perfbench binary into the tree, as go build would.
begin perfbench-build build "perfbench: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)

begin test test "go test -race ./..."
go test -race ./...

# The concurrency and determinism contracts (stable results across worker
# counts, prompt cancellation, no goroutine leaks, order-independent
# ingest, aggregation and model selection) get an extra stress pass:
# shuffled test order, run twice, under the race detector, across the
# deterministic core of the modeling path. The parallel-ingest report
# parity (TestIngestReportIndependentOfWorkers) and the edserve decode
# handoff suites run here.
shuffle_pkgs="./internal/ingest/... ./internal/pipeline/... ./internal/aggregate/... ./internal/epoch/... ./internal/modeling/... ./internal/pmnf/... ./internal/analysis/... ./internal/serve/..."
begin shuffle test "go test -race -shuffle=on -count=2 (ingest + pipeline + modeling core)"
go test -race -shuffle=on -count=2 $shuffle_pkgs

# The edlint parallel loader type-checks packages concurrently and its
# incremental cache must stay byte-identical to a cold run; both contracts
# get a dedicated shuffled race pass (the full ./... race run above covers
# the rest of the lint suite once). The perf analyzer family's parity
# property rides along: interprocedural traces must not depend on worker
# count or cache temperature.
begin lint-parity test "go test -race -shuffle=on (edlint parallel loader + cache parity)"
go test -race -shuffle=on -run 'TestLoadModuleWorkersParity|TestLintCacheParity|TestPropLintCacheParity|TestPropPerfAnalyzersParity' ./internal/lint

# resilience: the randomized fault-schedule invariants — every run either
# completes, completes partially with all failures classified, or fails
# with a typed error; resume after any interruption is byte-identical;
# injector and retrier replay exactly from their seeds — rerun under the
# race detector as a dedicated stage with their own wall-time budget, so
# a hang in the chaos path (a stalled stage, a leaked goroutine blocking
# exit) surfaces as budget-exceeded rather than wedging the whole gate.
# The suites are selected by name, so before the run every named suite
# must appear in `go test -list`: a renamed or deleted suite fails the
# stage instead of silently dropping out of the gate.
begin resilience test "go test -race (fault-schedule propcheck invariants, 120s budget)"
res_suites="TestPropFaultScheduleTrichotomy TestPropResumeByteIdentical TestPropCheckpointRoundTrip TestPropInjectorReplayIdentical TestPropRetrySleepScheduleReplayable"
res_run=$(echo "$res_suites" | tr ' ' '|')
res_listed=$(go test -list "$res_run" ./internal/resilience ./internal/pipeline)
for suite in $res_suites; do
	if ! echo "$res_listed" | grep -qx "$suite"; then
		echo "resilience: suite $suite is not defined in ./internal/resilience or ./internal/pipeline; update res_suites when renaming it" >&2
		exit 1
	fi
done
res_start=$(date +%s)
go test -race -run "$res_run" ./internal/resilience ./internal/pipeline
res_elapsed=$(($(date +%s) - res_start))
echo "resilience: fault-schedule suites passed in ${res_elapsed}s"
if [ "$res_elapsed" -gt 120 ]; then
	class="budget-exceeded"
	echo "resilience: suites exceeded the 120s budget (${res_elapsed}s) — a chaos-path stall or runaway schedule; replay the printed EDCHECK_SEED" >&2
	exit 1
fi

# edcheck: the propcheck invariant suites (TestProp*) rerun in their
# long-haul configuration — 5x the per-property iteration count under a
# 55-second budget. Any failure prints a one-line EDCHECK_SEED replay
# recipe; the budget keeps the gate cheap as suites accumulate.
begin edcheck test "edcheck (long-haul propcheck invariants: 5x iterations, 55s budget)"
go run ./cmd/edcheck

# Coverage-regression gate: per-package statement coverage must not drop
# more than 2 points below the committed baseline. Refresh the baseline
# deliberately (see the regeneration hint below) when coverage moves for a
# good reason; silent erosion fails the gate.
begin coverage test "coverage regression (baseline: COVERAGE_baseline.txt, 2pt tolerance)"
cover_current=$(mktemp)
go test -cover ./internal/... |
	awk '$1 == "ok" { for (i = 1; i <= NF; i++) if ($i == "coverage:") { p = $(i + 1); sub(/%/, "", p); print $2, p } }' |
	sort >"$cover_current"
awk '
	NR == FNR { base[$1] = $2; next }
	{ cur[$1] = $2 }
	END {
		bad = 0
		for (pkg in base) {
			if (!(pkg in cur)) {
				printf "coverage: %s has a baseline (%.1f%%) but was missing from this run\n", pkg, base[pkg]
				bad = 1
			} else if (cur[pkg] < base[pkg] - 2) {
				printf "coverage regression: %s %.1f%% is more than 2pt below the %.1f%% baseline\n", pkg, cur[pkg], base[pkg]
				bad = 1
			}
		}
		for (pkg in cur) if (!(pkg in base)) {
			printf "coverage: note: %s (%.1f%%) is new — add it to COVERAGE_baseline.txt\n", pkg, cur[pkg]
		}
		if (bad) {
			print "coverage gate failed; after a deliberate change, refresh with:"
			print "  go test -cover ./internal/... | awk <see verify.sh> | sort > COVERAGE_baseline.txt"
		}
		exit bad
	}' COVERAGE_baseline.txt "$cover_current"

# edlint-bench: the full-module lint (parse + type-check + 14-analyzer
# suite) is itself part of the gate, so it must stay cheap. The stage
# builds the binary once, runs it cold into a fresh cache directory
# (populating the findings cache), then runs it again warm. The cold run
# gets a 10-second budget (down from 25s when the standard library was
# still type-checked from source): edlint reads the standard library from
# the toolchain's export data, which the vet and build stages above have
# already compiled into GOCACHE, so a cold run here is a ~1s load plus
# the analyzers. The warm run gets 5 seconds — a warm miss here means the
# content-addressed findings cache broke. BENCH_lint.json tracks the
# finer-grained trajectory via BenchmarkLintRepo / BenchmarkLintRepoWarm.
begin edlint lint "edlint ./... (edlint-bench: cold-then-warm, 10s/5s budgets)"
lint_bin=$(mktemp)
lint_cache=$(mktemp -d)
go build -o "$lint_bin" ./cmd/edlint
lint_start=$(date +%s)
"$lint_bin" -cachedir "$lint_cache" ./...
lint_cold=$(($(date +%s) - lint_start))
lint_start=$(date +%s)
"$lint_bin" -cachedir "$lint_cache" ./...
lint_warm=$(($(date +%s) - lint_start))
echo "edlint-bench: cold ${lint_cold}s, warm ${lint_warm}s"
if [ "$lint_cold" -gt 10 ]; then
	class="budget-exceeded"
	echo "edlint-bench: cold run exceeded the 10s budget (${lint_cold}s) — profile with 'go test -bench BenchmarkLintRepo ./internal/lint'" >&2
	exit 1
fi
if [ "$lint_warm" -gt 5 ]; then
	class="budget-exceeded"
	echo "edlint-bench: warm run exceeded the 5s budget (${lint_warm}s) — the incremental cache is not hitting; profile with 'go test -bench BenchmarkLintRepoWarm ./internal/lint'" >&2
	exit 1
fi

# fit-bench: the design-matrix fit engine is the hot path of the whole
# analysis; a perf regression there silently eats the speedup the engine
# exists for. A 3-iteration BenchmarkParallelFit smoke run and one
# iteration of BenchmarkBuildModelsGrid/9x9 (the 81-configuration grid,
# where leave-one-out cross-validation dominates) must build and finish
# inside a 60-second budget together (the trajectories live in
# BENCH_pipeline.json). The BenchmarkParallelFit run also reports
# allocations (-test.benchmem) and gates its allocs/op: the perf
# analyzers police the hot paths statically, and this ceiling catches
# what escapes them dynamically. The PRESS cross-validation with pooled
# per-task scratch measured ~8.3k allocs/op per BuildModels campaign
# (down from ~11.8k); the ceiling leaves ~10% headroom. A build failure
# fails the stage as class=build via the compile step below.
fit_alloc_ceiling=9130
begin fit-bench-build build "go test -c (fit-bench smoke binary)"
fit_bin=$(mktemp)
go test -c -o "$fit_bin" .
begin fit-bench test "BenchmarkParallelFit -benchtime 3x -benchmem (allocs/op <= ${fit_alloc_ceiling}) + BenchmarkBuildModelsGrid/9x9 -benchtime 1x (60s budget)"
fit_start=$(date +%s)
fit_out=$("$fit_bin" -test.run '^$' -test.bench BenchmarkParallelFit -test.benchtime 3x -test.benchmem)
echo "$fit_out"
"$fit_bin" -test.run '^$' -test.bench 'BenchmarkBuildModelsGrid/9x9$' -test.benchtime 1x -test.benchmem
fit_elapsed=$(($(date +%s) - fit_start))
echo "fit-bench: smoke runs finished in ${fit_elapsed}s"
if [ "$fit_elapsed" -gt 60 ]; then
	class="budget-exceeded"
	echo "fit-bench: smoke runs exceeded the 60s budget (${fit_elapsed}s) — the fit engine regressed; profile with 'go test -bench BenchmarkBuildModelsGrid -cpuprofile cpu.out .'" >&2
	exit 1
fi
echo "$fit_out" | awk -v ceiling="$fit_alloc_ceiling" '
	/allocs\/op/ {
		for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i - 1) + 0 > ceiling) {
			printf "fit-bench: %s allocates %s allocs/op, above the %d ceiling — an allocation crept into the fit hot path; run '\''go run ./cmd/edlint ./...'\'' and '\''go test -bench BenchmarkParallelFit -benchmem -memprofile mem.out .'\''\n", $1, $(i - 1), ceiling
			bad = 1
		}
	}
	END { exit bad }' || { class="budget-exceeded"; exit 1; }

# serve-bench: the modeling service must answer queries from its
# published snapshot cache, never by re-fitting per request. The stage
# builds the edserve binary (keeping cmd/edserve honest as a compile
# target) and runs a 1-client BenchmarkServe smoke — one settled imdb
# campaign, then 100 predict queries over HTTP — inside a 30-second
# budget. The smoke writes its req/s and p99 latency to a temporary file
# and prints them next to the committed 1-client figures; it never
# touches BENCH_serve.json (regenerate the committed 1/4/16-client
# trajectory with the command recorded inside that file).
begin serve-bench-build build "go build ./cmd/edserve"
serve_bin=$(mktemp)
go build -o "$serve_bin" ./cmd/edserve
begin serve-bench test "BenchmarkServe/clients=1 -benchtime 100x (30s budget)"
serve_out=$(mktemp)
serve_start=$(date +%s)
EDSERVE_BENCH_OUT="$serve_out" go test -run '^$' -bench 'BenchmarkServe/clients=1$' -benchtime 100x ./internal/serve/
serve_elapsed=$(($(date +%s) - serve_start))
echo "serve-bench: smoke run finished in ${serve_elapsed}s"
# serve_figures <file>: the clients=1 req/s and p99 of a BenchmarkServe
# results file.
serve_figures() {
	awk '
		/"clients=1"/ { on = 1 }
		on && /"req_per_s"/ { v = $2; sub(/,/, "", v); rps = v }
		on && /"p99_ns"/ { v = $2; sub(/,/, "", v); p99 = v; on = 0 }
		END { printf "%.0f req/s, p99 %.0f us\n", rps, p99 / 1000 }' "$1"
}
echo "serve-bench: this run  $(serve_figures "$serve_out")"
echo "serve-bench: committed $(serve_figures BENCH_serve.json) (BENCH_serve.json)"
if [ "$serve_elapsed" -gt 30 ]; then
	class="budget-exceeded"
	echo "serve-bench: smoke run exceeded the 30s budget (${serve_elapsed}s) — the query path is fitting instead of serving from the snapshot cache; profile with 'go test -bench BenchmarkServe -cpuprofile cpu.out ./internal/serve/'" >&2
	exit 1
fi

# Fuzz smoke: the ingestion invariant ("valid profile or error — never a
# panic, never a NaN smuggled into the pipeline") must survive a short
# native-fuzzing burst on every loader fuzz target, plus the checkpoint
# record decoder ("a task record round-trips or errors — a truncated or
# bit-flipped record file must never panic or load silently wrong").
begin fuzz test "fuzz smoke (5s per target)"
go test -run='^$' -fuzz='^FuzzReadCSV$' -fuzztime=5s ./internal/importer
go test -run='^$' -fuzz='^FuzzProfileRead$' -fuzztime=5s ./internal/profile
go test -run='^$' -fuzz='^FuzzParseFileName$' -fuzztime=5s ./internal/profile
go test -run='^$' -fuzz='^FuzzCheckpointDecode$' -fuzztime=5s ./internal/resilience

echo "verify.sh: all gates passed"
