package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// goldenCase is one TestGolden row: the fixture under testdata/src/<name>,
// its golden file testdata/<name>.golden and the analyzers run over it.
type goldenCase struct {
	name string // fixture directory and golden file stem
	// path is the import path a single-directory fixture is loaded under;
	// empty for a fixture module (its own go.mod), which loads whole with
	// LoadModule because cross-package summaries need every package.
	path      string
	analyzers []*Analyzer
}

var goldenCases = []goldenCase{
	{"divguard", "fixture/divguard", []*Analyzer{DivGuard}},
	{"logdomain", "fixture/logdomain", []*Analyzer{LogDomain}},
	// naninout only polices the numerical-core import paths, so the
	// fixture is loaded under one of them.
	{"naninout", "fixture/internal/mathutil", []*Analyzer{NaNInOut}},
	{"errcheck", "fixture/errcheck", []*Analyzer{ErrCheck}},
	{"libpanic", "fixture/libpanic", []*Analyzer{LibPanic}},
	{"maporder", "fixture/maporder", []*Analyzer{MapOrder}},
	// wallclock and sendguard police specific import paths, so their
	// fixtures are loaded under one of them.
	{"wallclock", "fixture/internal/modeling", []*Analyzer{WallClock}},
	{"sendguard", "fixture/internal/pipeline", []*Analyzer{SendGuard}},
	// resilience joined the wallclock-policed core with the fault
	// injection layer: the retrier's sanctioned diagnostic timing is
	// suppressed, everything else reports.
	{"resilience", "fixture/internal/resilience", []*Analyzer{WallClock}},
	// propcheck exercises file-scoped suppression boundaries: the
	// engine file's //edlint:ignore-file wallclock directive silences
	// its own draws but nothing in the sibling file.
	{"propcheck", "fixture/internal/propcheck", []*Analyzer{WallClock}},
	// The ignore fixtures exercise the suppression machinery against
	// the full default suite, so every analyzer name is "known".
	{"ignore", "fixture/ignore", DefaultAnalyzers()},
	{"ignorescope", "fixture/ignorescope", DefaultAnalyzers()},
	// The perf-family fixtures designate hot functions with
	// //edlint:hotpath directives or the policed default set.
	{"prealloc", "fixture/prealloc", []*Analyzer{PreAlloc}},
	{"allocloop", "", []*Analyzer{AllocLoop}},
	// The interprocedural fixture module launders clock, rand, map-order
	// and bare-send effects through helpers one or more calls deep.
	{"interproc", "", []*Analyzer{MapOrder, WallClock, SendGuard}},
}

// TestGolden runs each row's analyzers over its fixture and compares the
// formatted diagnostics against the checked-in golden file. Regenerate
// with:
//
//	go test ./internal/lint -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenOutput(t, tc)
			compareGolden(t, tc.name, got)
			// Single-analyzer fixtures must keep at least one true positive
			// for that analyzer; multi-analyzer fixtures have no single
			// expected name to assert on.
			if len(tc.analyzers) == 1 {
				if want := tc.analyzers[0].Name; !strings.Contains(got, want+":") {
					t.Errorf("fixture %s produced no %s finding; every fixture must keep at least one true positive",
						tc.name, want)
				}
			}
		})
	}
}

// TestGoldenCoversEveryAnalyzer keeps the fixtures and the suite in step:
// every default analyzer has a TestGolden row of its own, and every
// golden file and fixture directory under testdata belongs to a row, so
// deleting an analyzer cannot leave an orphaned fixture behind.
func TestGoldenCoversEveryAnalyzer(t *testing.T) {
	rows := make(map[string]bool)
	covered := make(map[string]bool)
	for _, tc := range goldenCases {
		rows[tc.name] = true
		if len(tc.analyzers) == 1 {
			covered[tc.analyzers[0].Name] = true
		}
	}
	for _, a := range DefaultAnalyzers() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no single-analyzer TestGolden row", a.Name)
		}
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(goldens, fixtures...) {
		if stem := strings.TrimSuffix(filepath.Base(f), ".golden"); !rows[stem] {
			t.Errorf("%s belongs to no TestGolden row; delete it or add the row", f)
		}
	}
}

// goldenOutput loads tc's fixture and renders its diagnostics.
func goldenOutput(t *testing.T, tc goldenCase) string {
	t.Helper()
	dir := filepath.Join("testdata", "src", tc.name)
	var mod *Module
	var err error
	if tc.path == "" {
		mod, err = LoadModule(dir)
	} else {
		mod, _, err = LoadDir(dir, tc.path)
	}
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return formatDiags(Run(mod, tc.analyzers, nil))
}

// goldenRow returns the TestGolden row of the named fixture.
func goldenRow(t *testing.T, name string) goldenCase {
	t.Helper()
	for _, tc := range goldenCases {
		if tc.name == name {
			return tc
		}
	}
	t.Fatalf("no TestGolden row %s", name)
	return goldenCase{}
}

// formatDiags renders diagnostics machine-independently: golden files
// must not embed the absolute checkout directory, so positions keep only
// the file's base name.
func formatDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	return b.String()
}

// compareGolden checks got against testdata/<name>.golden, rewriting the
// file under -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("writing %s: %v", golden, err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s (run with -update to create it): %v", golden, err)
	}
	if got != string(want) {
		t.Errorf("diagnostics for %s diverge from %s\n--- got ---\n%s--- want ---\n%s",
			name, golden, got, want)
	}
}

// TestGoldenInterproc asserts the v3 contract on the multi-package
// interproc fixture module beyond its byte-exact golden: wallclock
// reports laundered clock and rand reads with the cross-function "←"
// trace, and nothing else leaks a finding. The seeded draw is sanctioned
// at the source. The map-order, bare-send and context helpers are
// negative controls: only clock and rand effects cross a call, so
// maporder and sendguard report direct sites only.
func TestGoldenInterproc(t *testing.T) {
	got := goldenOutput(t, goldenRow(t, "interproc"))
	for _, want := range []string{
		"modeling.Label ← helpers.StampLabel ← helpers.now ← time.Now",
		"modeling.Jitter ← helpers.Draw ← rand.Float64",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("no laundered wallclock finding with the trace %q in the interproc fixture:\n%s", want, got)
		}
	}
	for _, fp := range []string{
		"SortedRows", "WriteSorted", "WriteResorted", "FormatRows", // map-ordered helpers
		"SeededLabel", "SeededTag", // draw sanctioned at the source
		"LaunderedSend", "SanitizedSend", "Push", "Relay", // sends in helpers
		"Detach", "Spawn", "Spin", // context helpers: nothing polices them
	} {
		if strings.Contains(got, fp) {
			t.Errorf("sanitized helper %s appears in a finding; the summary pass must not flag it:\n%s", fp, got)
		}
	}
}

// TestGoldenAllocLoop asserts the v4 contract on the perf-family fixture
// module beyond its byte-exact golden: the fitContext methods are hot by
// the policed default set with no directive in the fixture's hot package,
// the direct per-iteration make is reported, the stray-directive police
// fires, and none of the silent shapes (hot calls into cold allocating
// helpers, amortized reuse, site suppression, undesignated cold
// function) leak a false positive.
func TestGoldenAllocLoop(t *testing.T) {
	got := goldenOutput(t, goldenRow(t, "allocloop"))
	if !strings.Contains(got, "make([]float64, 8) allocates on every iteration of a hot loop in fitContext.prepare") {
		t.Errorf("the direct per-iteration make in fitContext.prepare was not reported:\n%s", got)
	}
	if !strings.Contains(got, "stray //edlint:hotpath directive") {
		t.Errorf("the unanchored //edlint:hotpath directive was not reported as stray:\n%s", got)
	}
	for _, fp := range []string{
		"helpers.",           // cold helpers, even when a hot loop calls them
		"fitContext.fitOne",  // hot call into the allocating helper
		"fitContext.seed",    // hot call into the suppressed helper
		"fitContext.recycle", // cap-guard + [:0] reset-reuse idioms
		"fitContext.retune",  // site-level suppression with a reason
		"coldSetup",          // same shape, not designated hot
	} {
		if strings.Contains(got, fp) {
			t.Errorf("sanctioned shape %s appears in a finding; the perf family must not flag it:\n%s", fp, got)
		}
	}
}
