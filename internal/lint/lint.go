// Package lint is Extra-Deep's project-native static-analysis framework
// ("edlint"). It parses and type-checks the whole module with nothing but
// the standard library (go/parser, go/ast, go/types) and runs a suite of
// analyzers tuned to the failure modes that silently corrupt empirical
// performance models: unguarded divisions, logarithm domain errors,
// NaN/Inf escaping exported numeric APIs, discarded errors, panics in
// library code — and, via a small intra-procedural dataflow core
// (dataflow.go) that tracks which values descend from a nondeterminism
// source, map-iteration order reaching output (maporder), wall-clock and
// rand reads in the deterministic core (wallclock, also through helpers
// via the interprocedural clock/rand summaries of summary.go), and
// unguarded concurrency acquire/release shapes (sendguard). The perf
// family (allocloop, prealloc) polices direct allocation sites in
// designated hot loops.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis at a
// fraction of its surface: an Analyzer is a named Run function over a Pass,
// a Pass wraps one type-checked package, and diagnostics carry positions.
// Findings are suppressed with a mandatory reason at one of three scopes
//
//	//edlint:ignore <analyzer> <reason>        // its line and the line below
//	//edlint:ignore-block <analyzer> <reason>  // the syntax node underneath
//	//edlint:ignore-file <analyzer> <reason>   // the whole file
//
// and malformed directives are themselves diagnostics (see suppress.go).
//
// Tier-1 enforcement lives in selfcheck_test.go, which loads the
// surrounding module and fails `go test ./...` on any finding, so the
// repository can never regress below a clean lint; verify.sh additionally
// budgets the full-repo run (edlint-bench) and BENCH_lint.json tracks its
// cost via BenchmarkLintRepo.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"time"
)

// Diagnostic is one positioned finding of one analyzer.
type Diagnostic struct {
	// Pos is the resolved source position of the finding.
	Pos token.Position
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string
	// Message describes the finding and, where possible, the fix.
	Message string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run inspects the Pass's package and reports findings via Reportf.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	// Analyzer is the pass's analyzer.
	Analyzer *Analyzer
	// Fset resolves token positions for the package's files.
	Fset *token.FileSet
	// Files are the package's parsed files (with comments).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression/object maps.
	Info *types.Info
	// Path is the package's import path; analysis units that include
	// test files keep the import path of the package under test.
	Path string
	// IsTestUnit reports whether the unit contains _test.go files.
	IsTestUnit bool
	// Sums is the module-wide interprocedural summary table (edlint v3).
	// It is shared by every pass of one run; wallclock uses it to resolve
	// clock and rand reads laundered through helpers. May be nil in reduced harnesses;
	// lookups on a nil table resolve to nothing.
	Sums *SummaryTable

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Run executes the analyzers over every analysis unit of the module whose
// package passes the filter (a nil filter selects everything), applies
// //edlint:ignore suppression, and returns the surviving diagnostics in
// deterministic (position, analyzer) order. Malformed ignore directives
// are reported as "ignore" diagnostics.
func Run(mod *Module, analyzers []*Analyzer, filter func(*Package) bool) []Diagnostic {
	// Directives are validated against the whole default suite, not just the
	// analyzers selected for this run: an //edlint:ignore logdomain directive
	// is well-formed even when only divguard is running.
	known := make(map[string]bool, len(analyzers))
	for _, a := range DefaultAnalyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	// The summary table is module-wide by construction: it must see every
	// function body even when the filter narrows the reported packages,
	// or a cross-package trace would dead-end at the filter boundary.
	sums := Summarize(mod)
	var all []Diagnostic
	for _, pkg := range mod.Pkgs {
		if filter != nil && !filter(pkg) {
			continue
		}
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       mod.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				Path:       pkg.Path,
				IsTestUnit: pkg.IsTest,
				Sums:       sums,
				diags:      &diags,
			}
			a.Run(pass)
		}
		dirs, malformed := collectDirectives(mod.Fset, pkg.Files, known)
		all = append(all, suppress(diags, dirs)...)
		all = append(all, malformed...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}

// Options configures a Lint run. The zero value runs the default
// analyzer suite over every package.
type Options struct {
	// Analyzers to run; nil means DefaultAnalyzers().
	Analyzers []*Analyzer
	// Filter restricts reported packages (nil selects everything).
	Filter func(*Package) bool
}

// Stats reports where a Lint run's time went.
type Stats struct {
	// Packages is the number of analysis units checked.
	Packages int
	// LoadMS and AnalyzeMS split the run's wall time.
	LoadMS    int64
	AnalyzeMS int64
}

// Lint loads the module rooted at root and runs the analyzers over it.
// Every run is a full load: there is no state carried between runs.
func Lint(root string, opts Options) ([]Diagnostic, *Stats, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = DefaultAnalyzers()
	}
	start := time.Now()
	mod, err := LoadModule(root)
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{Packages: len(mod.Pkgs), LoadMS: time.Since(start).Milliseconds()}

	mark := time.Now()
	diags := Run(mod, analyzers, opts.Filter)
	stats.AnalyzeMS = time.Since(mark).Milliseconds()
	return diags, stats, nil
}
