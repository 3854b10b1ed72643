package lint

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// copyFixtureModule copies the interproc fixture module into a fresh
// temp directory so tests can mutate it freely.
func copyFixtureModule(t testing.TB) string {
	t.Helper()
	dst := t.TempDir()
	if err := copyTree(filepath.Join("testdata", "src", "interproc"), dst); err != nil {
		t.Fatalf("copying fixture module: %v", err)
	}
	return dst
}

// TestLintCacheParity is the cold/warm contract on a module with a rich,
// non-empty finding set (the interproc fixture): a cacheless run, a
// cache-priming run and a findings-cache-hit run must all produce
// byte-identical diagnostics, and the cache state must progress
// miss → hit.
func TestLintCacheParity(t *testing.T) {
	root := copyFixtureModule(t)
	cacheDir := t.TempDir()

	cold, cstats, err := Lint(root, Options{})
	if err != nil {
		t.Fatalf("cacheless run: %v", err)
	}
	if cstats.FindingsCache != "off" {
		t.Errorf("cacheless run: FindingsCache=%s, want off", cstats.FindingsCache)
	}
	if len(cold) == 0 {
		t.Fatalf("fixture module produced no findings; the parity test needs a non-empty set")
	}
	want := formatDiags(cold)

	for _, step := range []struct{ name, state string }{{"priming", "miss"}, {"findings-hit", "hit"}} {
		diags, stats, err := Lint(root, Options{CacheDir: cacheDir})
		if err != nil {
			t.Fatalf("%s run: %v", step.name, err)
		}
		if stats.FindingsCache != step.state {
			t.Errorf("%s run: FindingsCache=%s, want %s", step.name, stats.FindingsCache, step.state)
		}
		if got := formatDiags(diags); got != want {
			t.Errorf("%s run diverges from cacheless run\n--- cacheless ---\n%s--- %s ---\n%s", step.name, want, step.name, got)
		}
	}
}

// TestLintFilterBypassesFindingsCache: a package filter must never be
// served from — or poison — the findings cache.
func TestLintFilterBypassesFindingsCache(t *testing.T) {
	root := copyFixtureModule(t)
	cacheDir := t.TempDir()
	filter := func(p *Package) bool { return strings.HasSuffix(p.Path, "/modeling") }
	diags, stats, err := Lint(root, Options{CacheDir: cacheDir, Filter: filter})
	if err != nil {
		t.Fatalf("filtered run: %v", err)
	}
	if stats.FindingsCache != "bypass" {
		t.Errorf("filtered run: FindingsCache=%s, want bypass", stats.FindingsCache)
	}
	for _, d := range diags {
		if !strings.Contains(d.Pos.Filename, "modeling") {
			t.Errorf("filtered run leaked a finding outside the filter: %s", d)
		}
	}
	// A full run right after must be a miss, not a hit on the subset.
	full, fstats, err := Lint(root, Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	if fstats.FindingsCache != "miss" {
		t.Errorf("full run after filtered run: FindingsCache=%s, want miss", fstats.FindingsCache)
	}
	if len(full) <= len(diags) {
		t.Errorf("full run found %d diagnostics, filtered run %d; the full set must be strictly larger here",
			len(full), len(diags))
	}
}

// TestLoadModuleWorkersParity: the concurrent loader must produce the
// same analysis — same unit order, same findings — whether its goroutines
// run one at a time (GOMAXPROCS 1) or in parallel (GOMAXPROCS 4). Run
// under -race this doubles as the loader's data-race test.
func TestLoadModuleWorkersParity(t *testing.T) {
	root := copyFixtureModule(t)
	seq, err := loadAtProcs(t, root, 1)
	if err != nil {
		t.Fatalf("sequential load: %v", err)
	}
	par, err := loadAtProcs(t, root, 4)
	if err != nil {
		t.Fatalf("parallel load: %v", err)
	}
	if len(seq.Pkgs) != len(par.Pkgs) {
		t.Fatalf("unit count differs: sequential %d, parallel %d", len(seq.Pkgs), len(par.Pkgs))
	}
	for i := range seq.Pkgs {
		if seq.Pkgs[i].Path != par.Pkgs[i].Path {
			t.Errorf("unit %d: sequential %s, parallel %s", i, seq.Pkgs[i].Path, par.Pkgs[i].Path)
		}
	}
	a := formatDiags(Run(seq, DefaultAnalyzers(), nil))
	b := formatDiags(Run(par, DefaultAnalyzers(), nil))
	if a != b {
		t.Errorf("findings differ between sequential and parallel load\n--- sequential ---\n%s--- parallel ---\n%s", a, b)
	}
}

// loadAtProcs loads the module at root with GOMAXPROCS set to procs; the
// test's original setting is restored in t.Cleanup.
func loadAtProcs(t testing.TB, root string, procs int) (*Module, error) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return LoadModule(root)
}

// TestImportCycleReported: the upfront cycle check must name the cycle
// instead of deadlocking or reporting a bare failure under concurrency.
func TestImportCycleReported(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module cyc\n\ngo 1.24\n")
	write("a/a.go", "package a\n\nimport \"cyc/b\"\n\nvar A = b.B\n")
	write("b/b.go", "package b\n\nimport \"cyc/a\"\n\nvar B = a.A\n")
	_, err := LoadModule(root)
	if err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("cyclic module: got error %v, want an import cycle report", err)
	}
}

// TestLoadFailsWithoutExportData: with no go command to locate the
// standard library's export data, the load must fail with the typed
// lookup error naming the missing packages — never fall back to
// type-checking the standard library from source.
func TestLoadFailsWithoutExportData(t *testing.T) {
	root := copyFixtureModule(t)
	t.Setenv("PATH", "")
	_, err := LoadModule(root)
	var xerr *ExportDataError
	if !errors.As(err, &xerr) {
		t.Fatalf("load without a go command: got error %v, want an *ExportDataError", err)
	}
	if !slices.Contains(xerr.Packages, "fmt") {
		t.Errorf("missing packages %v do not name the fixture's fmt import", xerr.Packages)
	}
	if msg := err.Error(); !strings.Contains(msg, "export-data lookup") || !strings.Contains(msg, "fmt") {
		t.Errorf("error %q does not name the export-data lookup and a missing package", msg)
	}
}
