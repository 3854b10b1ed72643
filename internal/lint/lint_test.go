package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFindModuleRoot(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("returned root %s has no go.mod: %v", root, err)
	}
	// Walking up from a nested directory must land on the same root.
	nested, err := FindModuleRoot(filepath.Join("testdata", "src", "divguard"))
	if err != nil {
		t.Fatalf("FindModuleRoot(nested): %v", err)
	}
	if nested != root {
		t.Errorf("nested lookup found %s, want %s", nested, root)
	}
}

func TestFindModuleRootMissing(t *testing.T) {
	if _, err := FindModuleRoot(t.TempDir()); err == nil {
		t.Error("expected an error for a directory tree without go.mod")
	}
}

func TestModulePath(t *testing.T) {
	dir := t.TempDir()
	gomod := filepath.Join(dir, "go.mod")
	if err := os.WriteFile(gomod, []byte("module example.com/m\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := modulePath(gomod)
	if err != nil {
		t.Fatalf("modulePath: %v", err)
	}
	if got != "example.com/m" {
		t.Errorf("modulePath = %q, want example.com/m", got)
	}
	if err := os.WriteFile(gomod, []byte("go 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := modulePath(gomod); err == nil {
		t.Error("expected an error for a go.mod without a module directive")
	}
}

func TestLoadDirRejectsEmptyDir(t *testing.T) {
	if _, _, err := LoadDir(t.TempDir(), "fixture/empty"); err == nil {
		t.Error("expected an error for a directory without Go files")
	}
}

func TestLoadDirRejectsTypeErrors(t *testing.T) {
	dir := t.TempDir()
	src := "package broken\n\nfunc f() int { return \"not an int\" }\n"
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDir(dir, "fixture/broken"); err == nil {
		t.Error("expected a type error to fail the load")
	}
}

func TestLoadModuleRejectsNoGoFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example.com/empty\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadModule(dir)
	if err == nil {
		t.Fatal("expected an error for a module without Go files")
	}
	if !strings.Contains(err.Error(), "no Go files") {
		t.Errorf("error = %v, want it to say the module has no Go files", err)
	}
}

func TestLoadModuleReportsTypeErrorsWithPositions(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example.com/broken\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package broken

func f() int { return "a" }
func g() int { return "b" }
func h() int { return "c" }
func i() int { return "d" }
`
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadModule(dir)
	if err == nil {
		t.Fatal("expected type errors to fail the load")
	}
	msg := err.Error()
	if !strings.Contains(msg, "broken.go:3") {
		t.Errorf("error lacks the first error position: %v", err)
	}
	if strings.Count(msg, "broken.go:") != 3 || !strings.Contains(msg, "1 more") {
		t.Errorf("error should show three positioned errors and the remainder count: %v", err)
	}
}

// parseOne parses src as a single in-memory file for directive tests.
func parseOne(t *testing.T, fset *token.FileSet, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, "dir_test_src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func TestCollectDirectives(t *testing.T) {
	src := `package p

func f() {
	//edlint:ignore divguard a documented reason
	_ = 1
	//edlint:ignore divguard
	_ = 2
	//edlint:ignore
	_ = 3
	//edlint:ignore bogus some reason
	_ = 4
}
`
	fset := token.NewFileSet()
	f := parseOne(t, fset, src)
	known := map[string]bool{"divguard": true}
	dirs, malformed := collectDirectives(fset, []*ast.File{f}, known)
	if len(dirs) != 1 {
		t.Fatalf("got %d well-formed directives, want 1: %+v", len(dirs), dirs)
	}
	if dirs[0].analyzer != "divguard" || dirs[0].from != 4 || dirs[0].to != 5 {
		t.Errorf("directive = %+v, want divguard covering lines 4-5", dirs[0])
	}
	if len(malformed) != 3 {
		t.Fatalf("got %d malformed diagnostics, want 3: %v", len(malformed), malformed)
	}
	wants := []string{"without a reason", "malformed directive", "unknown analyzer bogus"}
	for i, w := range wants {
		if !strings.Contains(malformed[i].Message, w) {
			t.Errorf("malformed[%d] = %q, want it to mention %q", i, malformed[i].Message, w)
		}
	}
}

func TestSuppressCoversLineAndLineBelow(t *testing.T) {
	mk := func(line int, analyzer string) Diagnostic {
		return Diagnostic{
			Pos:      token.Position{Filename: "f.go", Line: line, Column: 1},
			Analyzer: analyzer,
			Message:  "m",
		}
	}
	dirs := []directive{{analyzer: "divguard", file: "f.go", from: 10, to: 11}}
	diags := []Diagnostic{
		mk(10, "divguard"),  // same line: suppressed
		mk(11, "divguard"),  // line below: suppressed
		mk(12, "divguard"),  // two lines below: kept
		mk(11, "logdomain"), // other analyzer: kept
	}
	kept := suppress(diags, dirs)
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2: %v", len(kept), kept)
	}
	if kept[0].Pos.Line != 12 || kept[1].Analyzer != "logdomain" {
		t.Errorf("unexpected survivors: %v", kept)
	}
}

func TestCollectDirectivesScopes(t *testing.T) {
	src := `package p

//edlint:ignore-file logdomain generated lookup tables take logs of positive constants

//edlint:ignore-block divguard the loop divides by table entries checked nonzero
func f() {
	for i := 0; i < 3; i++ {
		_ = i
	}
}

//edlint:ignore-everything divguard no such scope
func g() {}
`
	fset := token.NewFileSet()
	f := parseOne(t, fset, src)
	known := map[string]bool{"divguard": true, "logdomain": true}
	dirs, malformed := collectDirectives(fset, []*ast.File{f}, known)
	if len(dirs) != 2 {
		t.Fatalf("got %d directives, want 2: %+v", len(dirs), dirs)
	}
	if d := dirs[0]; d.analyzer != "logdomain" || d.from != 1 || d.to != wholeFile {
		t.Errorf("file directive = %+v, want logdomain covering the whole file", d)
	}
	// The block directive sits above func f (lines 6-10): it must cover
	// exactly that span, not just two lines and not the whole file.
	if d := dirs[1]; d.analyzer != "divguard" || d.from != 6 || d.to != 10 {
		t.Errorf("block directive = %+v, want divguard covering lines 6-10", d)
	}
	if len(malformed) != 1 || !strings.Contains(malformed[0].Message, "unknown ignore scope") {
		t.Errorf("malformed = %v, want one unknown-scope diagnostic", malformed)
	}
}

func TestSuppressScopes(t *testing.T) {
	mk := func(line int, analyzer string) Diagnostic {
		return Diagnostic{
			Pos:      token.Position{Filename: "f.go", Line: line, Column: 1},
			Analyzer: analyzer,
			Message:  "m",
		}
	}
	dirs := []directive{
		{analyzer: "divguard", file: "f.go", from: 6, to: 10},         // block
		{analyzer: "logdomain", file: "f.go", from: 1, to: wholeFile}, // file
	}
	diags := []Diagnostic{
		mk(6, "divguard"),    // block start: suppressed
		mk(10, "divguard"),   // block end: suppressed
		mk(11, "divguard"),   // past the block: kept
		mk(999, "logdomain"), // anywhere in the file: suppressed
		mk(7, "maporder"),    // other analyzer inside the block: kept
	}
	kept := suppress(diags, dirs)
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2: %v", len(kept), kept)
	}
	if kept[0].Pos.Line != 11 || kept[1].Analyzer != "maporder" {
		t.Errorf("unexpected survivors: %v", kept)
	}
}

func TestBlockSpanFallsBackWithoutNode(t *testing.T) {
	src := `package p

//edlint:ignore-block divguard divisors below are table constants

// (nothing starts on the next line either)

var x = 1.0
`
	fset := token.NewFileSet()
	f := parseOne(t, fset, src)
	dirs, malformed := collectDirectives(fset, []*ast.File{f}, map[string]bool{"divguard": true})
	if len(malformed) != 0 {
		t.Fatalf("unexpected malformed diagnostics: %v", malformed)
	}
	if len(dirs) != 1 || dirs[0].from != 3 || dirs[0].to != 4 {
		t.Errorf("directive = %+v, want line-scope fallback covering 3-4", dirs)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "divguard",
		Message:  "unguarded division",
	}
	want := "x.go:3:7: divguard: unguarded division"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil {
		t.Fatalf("Select(\"\"): %v", err)
	}
	if len(all) != len(DefaultAnalyzers()) {
		t.Errorf("empty spec selected %d analyzers, want the full suite of %d", len(all), len(DefaultAnalyzers()))
	}
	two, err := Select("divguard,libpanic")
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(two) != 2 || two[0].Name != "divguard" || two[1].Name != "libpanic" {
		t.Errorf("Select(divguard,libpanic) = %v", names(two))
	}
	if _, err := Select("nosuch"); err == nil {
		t.Error("expected an error for an unknown analyzer name")
	}
}

func names(as []*Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

// TestLintFilterNarrowsFindings: a package filter only narrows what is
// reported. The filtered run's findings are exactly the full run's
// findings inside the selected package, because both load and summarize
// the whole module.
func TestLintFilterNarrowsFindings(t *testing.T) {
	root := filepath.Join("testdata", "src", "interproc")
	full, stats, err := Lint(root, Options{})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	if stats.Packages == 0 {
		t.Errorf("full run checked no packages: %+v", *stats)
	}
	inModeling := func(d Diagnostic) bool {
		return strings.Contains(filepath.ToSlash(d.Pos.Filename), "/internal/modeling/")
	}
	var want []Diagnostic
	for _, d := range full {
		if inModeling(d) {
			want = append(want, d)
		}
	}
	if len(want) == 0 || len(want) == len(full) {
		t.Fatalf("the modeling package holds %d of %d findings; the check needs a strict, non-empty subset", len(want), len(full))
	}
	filter := func(p *Package) bool { return strings.HasSuffix(p.Path, "/modeling") }
	narrowed, _, err := Lint(root, Options{Filter: filter})
	if err != nil {
		t.Fatalf("filtered run: %v", err)
	}
	if got, w := formatDiags(narrowed), formatDiags(want); got != w {
		t.Errorf("filtered run diverges from the full run restricted to modeling\n--- got ---\n%s--- want ---\n%s", got, w)
	}
}
