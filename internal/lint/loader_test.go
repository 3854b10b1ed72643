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

// copyTree copies a directory tree (copyFixtureModule's worker).
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(src, p)
		if rerr != nil {
			return rerr
		}
		out := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		return os.WriteFile(out, data, 0o644)
	})
}
