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
fit_bin=""
serve_bin=""
serve_out=""

cleanup() {
	code=$?
	[ -n "$cover_current" ] && rm -f "$cover_current"
	[ -n "$lint_bin" ] && rm -f "$lint_bin"
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

# require_suites <packages> <suite>...: stages that select tests by name
# first check that every named suite appears in `go test -list`, so a
# renamed or deleted suite fails the stage instead of silently dropping
# out of the gate.
require_suites() {
	req_pkgs=$1
	shift
	req_listed=$(go test -list "$(echo "$*" | tr ' ' '|')" $req_pkgs)
	for suite in "$@"; do
		if ! echo "$req_listed" | grep -qx "$suite"; then
			echo "$stage: suite $suite is not defined in $req_pkgs; update the stage's suite list when renaming it" >&2
			exit 1
		fi
	done
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
# findings must not depend on how many of them run at once; that contract
# gets a dedicated shuffled race pass (the full ./... race run above
# covers the rest of the lint suite once). The perf analyzer family's
# parity property rides along: its findings must not depend on
# GOMAXPROCS either.
begin lint-parity test "go test -race -shuffle=on (edlint parallel loader parity)"
lint_suites="TestLoadModuleWorkersParity TestPropPerfAnalyzersParity"
require_suites ./internal/lint $lint_suites
go test -race -shuffle=on -run "$(echo "$lint_suites" | tr ' ' '|')" ./internal/lint

# resilience: the randomized fault-schedule invariants — every run either
# completes, completes partially with all failures classified, or fails
# with a typed error; resume after any interruption is byte-identical;
# the injector replays exactly from its seed; a checkpoint record cut,
# zeroed or block-zeroed by a crash is a miss that refits only its task
# — rerun under the race detector as a dedicated stage with their own wall-time budget, so
# a hang in the chaos path (a stalled stage, a leaked goroutine blocking
# exit) surfaces as budget-exceeded rather than wedging the whole gate.
# The suites are selected by name, so require_suites checks them first.
begin resilience test "go test -race (fault-schedule propcheck invariants, 120s budget)"
res_suites="TestPropFaultScheduleTrichotomy TestPropResumeByteIdentical TestPropCheckpointRoundTrip TestPropCheckpointCrashConsistency TestPropInjectorReplayIdentical"
res_run=$(echo "$res_suites" | tr ' ' '|')
require_suites "./internal/resilience ./internal/pipeline" $res_suites
res_start=$(date +%s)
go test -race -run "$res_run" ./internal/resilience ./internal/pipeline
res_elapsed=$(($(date +%s) - res_start))
echo "resilience: fault-schedule suites passed in ${res_elapsed}s"
if [ "$res_elapsed" -gt 120 ]; then
	class="budget-exceeded"
	echo "resilience: suites exceeded the 120s budget (${res_elapsed}s) — a chaos-path stall or runaway schedule; replay the printed EDCHECK_SEED" >&2
	exit 1
fi

# oracle: EDFIT_ORACLE=1 routes every modeling.Fit through the frozen
# direct-solve reference (internal/modeling/oracle.go). Rerunning the
# fit-heavy packages on that route keeps the reference working end to
# end, so it cannot silently rot; the engine-vs-oracle suites call both
# paths directly and still compare the engine with the oracle here.
begin oracle test "EDFIT_ORACLE=1 go test (modeling, pipeline, core, serve on the reference fit path)"
EDFIT_ORACLE=1 go test ./internal/modeling ./internal/pipeline ./internal/core ./internal/serve

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

# edlint-bench: the full-module lint (parse + type-check + 10-analyzer
# suite) is itself part of the gate, so it must stay cheap. The stage
# builds the binary once and runs it once under a 10-second budget (down
# from 25s when the standard library was still type-checked from
# source): edlint reads the standard library from the toolchain's export
# data, which the vet and build stages above have already compiled into
# GOCACHE, so a run here is a ~1s load plus the analyzers. Every run is a
# full load; BENCH_lint.json tracks the finer-grained trajectory via
# BenchmarkLintRepo.
begin edlint lint "edlint ./... (edlint-bench: 10s budget)"
lint_bin=$(mktemp)
go build -o "$lint_bin" ./cmd/edlint
lint_start=$(date +%s)
"$lint_bin" ./...
lint_elapsed=$(($(date +%s) - lint_start))
echo "edlint-bench: ${lint_elapsed}s"
if [ "$lint_elapsed" -gt 10 ]; then
	class="budget-exceeded"
	echo "edlint-bench: run exceeded the 10s budget (${lint_elapsed}s) — profile with 'go test -bench BenchmarkLintRepo ./internal/lint'" >&2
	exit 1
fi

# fit-bench: the design-matrix fit engine is the hot path of the whole
# analysis; a perf regression there silently eats the speedup the engine
# exists for. A 3-iteration BenchmarkParallelFit smoke run and one
# iteration of BenchmarkBuildModelsGrid/9x9 (the 81-configuration grid,
# where leave-one-out cross-validation dominates) must build and finish
# inside a 60-second budget together (the trajectories live in
# BENCH_pipeline.json). Both runs report allocations (-test.benchmem)
# and both gate their allocs/op: the perf analyzers police the hot paths
# statically, and these ceilings catch what escapes them dynamically.
# BenchmarkParallelFit is a one-parameter campaign, so only the 9x9 grid
# reaches the two-parameter sparse hypothesis search. With the hypothesis
# space and the selection candidates in pooled per-task scratch, the
# one fit cache (each point set's basis columns and search space) keyed
# by a hash instead of a formatted string, the
# epoch series built from one slab per experiment, and each sample's
# median taken in one scratch slice, BenchmarkParallelFit measured
# 1.44-1.46k allocs/op (1.79-1.81k when every median copied its
# repetitions, 5.86-5.88k with the string key and per-sample series
# copies, 8.19-8.21k when every hypothesis and candidate allocated its
# own terms and Function) and one 9x9 iteration 5.6-6.1k (12.6-13.0k,
# 42.4-42.6k, 96.6-96.9k); each ceiling leaves ~10% headroom. A build failure fails the stage as class=build via the
# compile step below.
fit_alloc_ceiling=1600
grid_alloc_ceiling=6700
begin fit-bench-build build "go test -c (fit-bench smoke binary)"
fit_bin=$(mktemp)
go test -c -o "$fit_bin" .
begin fit-bench test "BenchmarkParallelFit -benchtime 3x -benchmem (allocs/op <= ${fit_alloc_ceiling}) + BenchmarkBuildModelsGrid/9x9 -benchtime 1x (allocs/op <= ${grid_alloc_ceiling}) (60s budget)"
fit_start=$(date +%s)
fit_out=$("$fit_bin" -test.run '^$' -test.bench BenchmarkParallelFit -test.benchtime 3x -test.benchmem)
echo "$fit_out"
grid_out=$("$fit_bin" -test.run '^$' -test.bench 'BenchmarkBuildModelsGrid/9x9$' -test.benchtime 1x -test.benchmem)
echo "$grid_out"
fit_elapsed=$(($(date +%s) - fit_start))
echo "fit-bench: smoke runs finished in ${fit_elapsed}s"
if [ "$fit_elapsed" -gt 60 ]; then
	class="budget-exceeded"
	echo "fit-bench: smoke runs exceeded the 60s budget (${fit_elapsed}s) — the fit engine regressed; profile with 'go test -bench BenchmarkBuildModelsGrid -cpuprofile cpu.out .'" >&2
	exit 1
fi
# alloc_gate <ceiling> <benchmark>: fail when a line of the benchmark
# output on stdin reports more allocs/op than the ceiling, or none does.
alloc_gate() {
	awk -v ceiling="$1" -v bench="$2" '
		/allocs\/op/ {
			found = 1
			for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i - 1) + 0 > ceiling) {
				printf "fit-bench: %s allocates %s allocs/op, above the %d ceiling — an allocation crept into the fit hot path; run '\''go run ./cmd/edlint ./...'\'' and '\''go test -run ^$ -bench %s -benchmem -memprofile mem.out .'\''\n", $1, $(i - 1), ceiling, bench
				bad = 1
			}
		}
		END { if (!found) print "fit-bench: no allocs/op figure in the " bench " output"; exit bad || !found }'
}
echo "$fit_out" | alloc_gate "$fit_alloc_ceiling" BenchmarkParallelFit || { class="budget-exceeded"; exit 1; }
echo "$grid_out" | alloc_gate "$grid_alloc_ceiling" BenchmarkBuildModelsGrid/9x9 || { class="budget-exceeded"; exit 1; }

# aggregate-bench: the Aggregate stage reduces each profile to a summary
# in pooled scratch and merges the summaries through one dense kernel
# table per configuration, so its allocations are the results'. Twenty
# iterations of BenchmarkAggregate on one worker measured 275-278 KB and
# 371-375 allocs/op on the 5x5 grid corpus and 98 KB and 280 allocs/op
# on the 90-profile case study; with string-keyed maps rebuilt per
# repetition they were 2.96 MB/32.3k and 3.59 MB/38.6k. Each ceiling
# leaves ~10% headroom.
agg_grid_bytes_ceiling=306000
agg_grid_alloc_ceiling=413
agg_case_bytes_ceiling=107800
agg_case_alloc_ceiling=308
begin aggregate-bench test "BenchmarkAggregate -benchtime 20x -benchmem (grid5x5 <= ${agg_grid_bytes_ceiling} B/op, ${agg_grid_alloc_ceiling} allocs/op; casestudy <= ${agg_case_bytes_ceiling} B/op, ${agg_case_alloc_ceiling} allocs/op)"
agg_out=$("$fit_bin" -test.run '^$' -test.bench 'BenchmarkAggregate' -test.benchtime 20x -test.benchmem)
echo "$agg_out"
echo "$agg_out" | awk \
	-v grid_bytes="$agg_grid_bytes_ceiling" -v grid_allocs="$agg_grid_alloc_ceiling" \
	-v case_bytes="$agg_case_bytes_ceiling" -v case_allocs="$agg_case_alloc_ceiling" '
	/^BenchmarkAggregate\// {
		if ($1 ~ /grid5x5/) { bytes = grid_bytes; allocs = grid_allocs; grid = 1 }
		else if ($1 ~ /casestudy/) { bytes = case_bytes; allocs = case_allocs; cs = 1 }
		else next
		for (i = 2; i <= NF; i++) {
			if (($i == "B/op" && $(i - 1) + 0 > bytes) || ($i == "allocs/op" && $(i - 1) + 0 > allocs)) {
				printf "aggregate-bench: %s allocates %s %s, above the ceiling — an allocation crept into the per-profile summary or the kernel-table merge; profile with '\''go test -run ^$ -bench BenchmarkAggregate -benchmem -memprofile mem.out .'\''\n", $1, $(i - 1), $i
				bad = 1
			}
		}
	}
	END { if (!grid || !cs) print "aggregate-bench: a BenchmarkAggregate sub-benchmark is missing from the output"; exit bad || !grid || !cs }' || { class="budget-exceeded"; exit 1; }

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

# upload-bench: an upload holds its profiles once, in the request body —
# each document is unescaped in place and decoded, spooled and handed off
# from its span of the body. One BenchmarkUpload iteration (the
# 90-document, 7.57 MB case-study envelope through the handler of an
# un-started server) measured 13.4-13.6 MB/op that way, against
# 20.5-20.7 MB/op when every document was copied into a slice of its own.
# The 16 MB ceiling sits between the two, so a per-document copy coming
# back fails the gate.
upload_bytes_ceiling=16000000
begin upload-bench test "BenchmarkUpload -benchtime 1x -benchmem (B/op <= ${upload_bytes_ceiling})"
upload_out=$(go test -run '^$' -bench 'BenchmarkUpload$' -benchtime 1x -benchmem ./internal/serve)
echo "$upload_out"
echo "$upload_out" | awk -v ceiling="$upload_bytes_ceiling" '
	/B\/op/ {
		found = 1
		for (i = 2; i <= NF; i++) if ($i == "B/op" && $(i - 1) + 0 > ceiling) {
			printf "upload-bench: %s allocates %s B/op, above the %d ceiling — the upload path copies its documents again; profile with '\''go test -run ^$ -bench BenchmarkUpload -memprofile mem.out ./internal/serve'\''\n", $1, $(i - 1), ceiling
			bad = 1
		}
	}
	END { if (!found) print "upload-bench: no B/op figure in the benchmark output"; exit bad || !found }' || { class="budget-exceeded"; exit 1; }

# Fuzz smoke: the ingestion invariant ("valid profile or error — never a
# panic, never a NaN smuggled into the pipeline") must survive a short
# native-fuzzing burst on every loader fuzz target, plus the checkpoint
# record decoder ("a task record round-trips or errors — a truncated or
# bit-flipped record file must never panic or load silently wrong"), and
# the edserve upload envelope decoder ("a body the fast path accepts
# decodes to json.Unmarshal's format and byte-equal documents").
begin fuzz test "fuzz smoke (5s per target)"
go test -run='^$' -fuzz='^FuzzReadCSV$' -fuzztime=5s ./internal/importer
go test -run='^$' -fuzz='^FuzzProfileRead$' -fuzztime=5s ./internal/profile
go test -run='^$' -fuzz='^FuzzParseFileName$' -fuzztime=5s ./internal/profile
go test -run='^$' -fuzz='^FuzzCheckpointDecode$' -fuzztime=5s ./internal/pipeline
go test -run='^$' -fuzz='^FuzzUploadEnvelope$' -fuzztime=5s ./internal/serve

echo "verify.sh: all gates passed"
