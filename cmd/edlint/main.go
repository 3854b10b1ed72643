// Command edlint runs Extra-Deep's project-native static-analysis suite
// (internal/lint) over the enclosing module and prints positioned
// diagnostics in the conventional file:line:col format.
//
// Usage:
//
//	edlint [-analyzers names] [-list] [-json] [patterns ...]
//
// The suite is ten analyzers — allocloop, divguard, errcheck, libpanic,
// logdomain, maporder, naninout, prealloc, sendguard and wallclock; -list
// describes each, and -analyzers runs a comma-separated subset.
//
// Patterns follow the go tool's shape relative to the current directory:
// "./..." (the default) selects every package, "./dir/..." a subtree, and
// "./dir" a single package. The whole module is always loaded and
// type-checked — analysis is only *reported* for matching packages, so
// cross-package facts stay sound.
//
// The standard library is read from the toolchain's compiled export
// data, located by one `go list -export` call, so the go command must be
// on PATH; without it the load fails (exit status 2).
//
// Every run loads and analyzes the module afresh; nothing is kept on disk
// between runs.
//
// With -json each finding is printed as one JSON object per line
// ({"file","line","col","analyzer","message"}), followed by one final
// summary object ({"summary":{...}}) with per-analyzer finding counts
// and load/analyze wall time; the exit status is unchanged by -json.
//
// Exit status: 0 when clean, 1 when findings were printed, 2 on usage or
// load errors. Findings are suppressed with a mandatory reason at three
// scopes —
//
//	//edlint:ignore <analyzer> <reason>        (line and line below)
//	//edlint:ignore-block <analyzer> <reason>  (the syntax node below)
//	//edlint:ignore-file <analyzer> <reason>   (the whole file)
//
// — and malformed directives are themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"extradeep/internal/lint"
)

// jsonDiagnostic is the -json wire shape of one finding, one object per
// line (JSON Lines), stable for editor and CI consumers.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonSummary is the final -json line: one object keyed "summary" so
// stream consumers can tell it from findings without counting lines.
type jsonSummary struct {
	Summary jsonSummaryBody `json:"summary"`
}

type jsonSummaryBody struct {
	Findings   int            `json:"findings"`
	ByAnalyzer map[string]int `json:"by_analyzer,omitempty"`
	Packages   int            `json:"packages"`
	LoadMS     int64          `json:"load_ms"`
	AnalyzeMS  int64          `json:"analyze_ms"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags are parsed from args into a
// private FlagSet and all output goes through the writers, so the CLI
// contract (exit codes, the unknown-analyzer message) is pinned by tests
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	analyzersSpec := fs.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	jsonOut := fs.Bool("json", false, "print findings as JSON Lines plus a final summary object")
	fs.Usage = func() {
		sayln(stderr, "usage: edlint [-analyzers names] [-list] [-json] [patterns ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := lint.Select(*analyzersSpec)
	if err != nil {
		sayln(stderr, err)
		return 2
	}
	if *list {
		for _, a := range lint.DefaultAnalyzers() {
			sayf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		sayln(stderr, err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		sayln(stderr, err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	filter, err := packageFilter(root, cwd, patterns)
	if err != nil {
		sayln(stderr, err)
		return 2
	}

	diags, stats, err := lint.Lint(root, lint.Options{
		Analyzers: analyzers,
		Filter:    filter,
	})
	if err != nil {
		sayln(stderr, err)
		return 2
	}

	enc := json.NewEncoder(stdout)
	byAnalyzer := make(map[string]int)
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
		pos := d.Pos
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		if *jsonOut {
			if err := enc.Encode(jsonDiagnostic{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}); err != nil {
				sayln(stderr, err)
				return 2
			}
			continue
		}
		sayf(stdout, "%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if *jsonOut {
		if err := enc.Encode(jsonSummary{Summary: jsonSummaryBody{
			Findings:   len(diags),
			ByAnalyzer: byAnalyzer,
			Packages:   stats.Packages,
			LoadMS:     stats.LoadMS,
			AnalyzeMS:  stats.AnalyzeMS,
		}}); err != nil {
			sayln(stderr, err)
			return 2
		}
	}
	if len(diags) > 0 {
		sayf(stderr, "edlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// sayf and sayln write best-effort console output: a console write error
// has no useful recovery in a CLI, so the results are deliberately
// dropped (and errcheck knows these helpers by shape).
func sayf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func sayln(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

// packageFilter compiles go-style directory patterns into a package
// predicate over the module rooted at root. Selecting the whole module
// returns a nil filter, so a ./... run reports every package.
func packageFilter(root, cwd string, patterns []string) (func(*lint.Package) bool, error) {
	type rule struct {
		dir     string
		subtree bool
	}
	rules := make([]rule, 0, len(patterns))
	for _, p := range patterns {
		subtree := false
		if p == "all" || p == "..." {
			p = "./..."
		}
		if strings.HasSuffix(p, "/...") {
			subtree = true
			p = strings.TrimSuffix(p, "/...")
			if p == "." || p == "" {
				p = "."
			}
		}
		dir := p
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		dir = filepath.Clean(dir)
		if _, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("edlint: bad pattern %q: %w", p, err)
		}
		rules = append(rules, rule{dir: dir, subtree: subtree})
	}
	wholeModule := false
	for _, r := range rules {
		if r.subtree && r.dir == root {
			wholeModule = true
			break
		}
	}
	if wholeModule {
		return nil, nil
	}
	return func(pkg *lint.Package) bool {
		for _, r := range rules {
			if pkg.Dir == r.dir {
				return true
			}
			if r.subtree && strings.HasPrefix(pkg.Dir, r.dir+string(filepath.Separator)) {
				return true
			}
			if r.subtree && pkg.Dir == r.dir {
				return true
			}
		}
		return false
	}, nil
}
