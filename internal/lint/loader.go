package lint

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one analysis unit: a type-checked package plus the parsed
// files the diagnostics refer to. Packages that have in-package test files
// are loaded twice internally — once without tests (for importers) and once
// with — but only the richer variant is surfaced as an analysis unit, so
// every file is analyzed exactly once. External test packages (package
// foo_test) form their own unit with the "_test" path suffix.
type Package struct {
	// Path is the import path ("extradeep/internal/pmnf"); external test
	// packages carry a "_test" suffix.
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files are the unit's parsed files, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's maps for the unit's files.
	Info *types.Info
	// IsTest reports whether the unit includes _test.go files.
	IsTest bool
}

// Module is a fully loaded and type-checked Go module.
type Module struct {
	// Root is the absolute module root (the directory holding go.mod).
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset is the shared file set of every parsed file.
	Fset *token.FileSet
	// Pkgs are the analysis units in deterministic (path) order.
	Pkgs []*Package
}

// dirEntry is one source directory of the module, split into the file
// groups Go's build model distinguishes, plus the memo of its plain
// (importable) type-check: the first importer runs it under once and any
// concurrent importer waits for the result.
type dirEntry struct {
	dir     string // absolute
	plain   []*ast.File
	inTest  []*ast.File // _test.go, same package name
	extTest []*ast.File // _test.go, package name + "_test"

	once sync.Once
	pkg  *types.Package
	err  error
}

// loader resolves and type-checks packages on demand. After scan() the
// dirs map is read-only, so units can import concurrently; each entry's
// once serializes its own build.
type loader struct {
	fset *token.FileSet
	dirs map[string]*dirEntry // import path → entry
	std  *stdImporter
}

// stdImporter resolves non-module imports from the toolchain's compiled
// export data, located up front by one `go list -export` call. The gc
// importer is not safe for concurrent use, so every resolution holds the
// mutex.
type stdImporter struct {
	mu sync.Mutex
	gc types.Importer
}

// newStdImporter locates the export data of the direct non-module
// imports and returns an importer over it. The lookup runs in dir, and
// any package without export data fails it: there is no fallback to
// type-checking the standard library from source.
func newStdImporter(fset *token.FileSet, dir string, imports []string) (*stdImporter, error) {
	exports, err := exportData(dir, imports)
	if err != nil {
		return nil, err
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data located for %s", path)
		}
		return os.Open(file)
	}
	return &stdImporter{gc: importer.ForCompiler(fset, "gc", lookup)}, nil
}

func (s *stdImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gc.Import(path)
}

// ExportDataError reports that the toolchain's export data could not be
// located for some non-module imports, for example because no go command
// is on PATH.
type ExportDataError struct {
	// Packages are the imports left without export data, sorted.
	Packages []string
	// Err is the go list failure or the per-package reasons.
	Err error
}

func (e *ExportDataError) Error() string {
	return fmt.Sprintf("lint: export-data lookup (go list -export) failed for %s: %v",
		strings.Join(e.Packages, ", "), e.Err)
}

func (e *ExportDataError) Unwrap() error { return e.Err }

// exportData runs one `go list -export` in dir over the given import
// paths and maps each to its compiled export-data file. "unsafe" is a
// compiler intrinsic with no export data and is never reported missing.
func exportData(dir string, paths []string) (map[string]string, error) {
	files := make(map[string]string, len(paths))
	if len(paths) == 0 {
		return files, nil
	}
	args := append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}}\t{{.Export}}\t{{with .Error}}{{.Err}}{{end}}"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		if msg := strings.TrimSpace(stderr.String()); msg != "" {
			err = fmt.Errorf("%w: %s", err, msg)
		}
	}
	var reasons []string
	for _, line := range strings.Split(string(out), "\n") {
		path, rest, _ := strings.Cut(line, "\t")
		file, reason, _ := strings.Cut(rest, "\t")
		if file != "" {
			files[path] = file
		} else if reason != "" {
			reasons = append(reasons, reason)
		}
	}
	var missing []string
	for _, p := range paths {
		if _, ok := files[p]; !ok && p != "unsafe" {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return files, nil
	}
	if err == nil {
		err = errors.New(strings.Join(reasons, "; "))
	}
	return nil, &ExportDataError{Packages: missing, Err: err}
}

// LoadModule parses and type-checks every package of the module rooted at
// root (the directory containing go.mod), including test files, and
// returns the analysis units. Standard-library dependencies are resolved
// from the toolchain's compiled export data, so the go command must be on
// PATH; a failed lookup is an *ExportDataError. Type-check errors anywhere
// in the module fail the load: analyzers only ever see well-typed code.
//
// Every analysis unit is checked on its own goroutine; a module package
// it imports is type-checked once, by its first importer. Results do not
// depend on the interleaving: unit order is path order, and on failure
// the error of the first unit in that order wins.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{fset: fset, dirs: make(map[string]*dirEntry)}
	if err := ld.scan(root, modPath); err != nil {
		return nil, err
	}
	if len(ld.dirs) == 0 {
		return nil, fmt.Errorf("lint: module %s at %s contains no Go files", modPath, root)
	}
	if ld.std, err = newStdImporter(fset, root, ld.externalImports()); err != nil {
		return nil, err
	}
	// A cycle would make a package's memo wait on itself, so it is
	// rejected up front with the chain named.
	if cyc := importCycle(ld.plainDeps()); cyc != nil {
		return nil, fmt.Errorf("lint: import cycle: %s", strings.Join(cyc, " → "))
	}

	paths := make([]string, 0, len(ld.dirs))
	for p := range ld.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var units []*Package
	for _, path := range paths {
		e := ld.dirs[path]
		// Unit 1: the package itself, with in-package tests when present.
		if files := append(append([]*ast.File(nil), e.plain...), e.inTest...); len(files) > 0 {
			units = append(units, &Package{Path: path, Dir: e.dir, Files: files, IsTest: len(e.inTest) > 0})
		}
		// Unit 2: the external test package, if any.
		if len(e.extTest) > 0 {
			units = append(units, &Package{Path: path + "_test", Dir: e.dir, Files: e.extTest, IsTest: true})
		}
	}
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for i, u := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u.Info = newInfo()
			u.Types, errs[i] = ld.check(u.Path, u.Files, u.Info)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", units[i].Path, err)
		}
	}
	return &Module{Root: root, Path: modPath, Fset: fset, Pkgs: units}, nil
}

// LoadDir parses and type-checks the single directory dir as a package
// with the given import path, resolving imports against the standard
// library only. It exists for fixture tests, whose packages live under
// testdata/ and are therefore invisible to LoadModule.
func LoadDir(dir, path string) (*Module, *Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		return nil, nil, err
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	std, err := newStdImporter(fset, dir, fileImports(files))
	if err != nil {
		return nil, nil, err
	}
	ld := &loader{fset: fset, std: std}
	info := newInfo()
	tpkg, err := ld.check(path, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	mod := &Module{Root: dir, Path: path, Fset: fset, Pkgs: []*Package{pkg}}
	return mod, pkg, nil
}

// scan walks the module tree and parses every source directory. Hidden
// directories, vendor/ and testdata/ trees are skipped, matching the go
// tool's build ignore rules.
func (ld *loader) scan(root, modPath string) error {
	return filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "vendor" || name == "testdata") {
			return filepath.SkipDir
		}
		files, perr := parseDir(ld.fset, p)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(root, p)
		if rerr != nil {
			return rerr
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		e := &dirEntry{dir: p}
		for _, f := range files {
			fname := ld.fset.Position(f.Package).Filename
			switch {
			case !strings.HasSuffix(fname, "_test.go"):
				e.plain = append(e.plain, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				e.extTest = append(e.extTest, f)
			default:
				e.inTest = append(e.inTest, f)
			}
		}
		ld.dirs[path] = e
		return nil
	})
}

// parseDir parses every .go file of one directory (without recursing) and
// returns the files in name order.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// fileImports returns the distinct unquoted import paths of files.
func fileImports(files ...[]*ast.File) []string {
	seen := make(map[string]bool)
	var out []string
	for _, group := range files {
		for _, f := range group {
			for _, spec := range f.Imports {
				p, err := strconv.Unquote(spec.Path.Value)
				if err != nil || seen[p] {
					continue
				}
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// externalImports returns the sorted direct imports that resolve outside
// the module: the standard library, since edlint loads dependency-free
// modules.
func (ld *loader) externalImports() []string {
	var out []string
	for _, e := range ld.dirs {
		for _, p := range fileImports(e.plain, e.inTest, e.extTest) {
			if _, ok := ld.dirs[p]; !ok {
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// plainDeps maps each module package to its module-internal imports from
// plain (non-test) files only — the graph the importer actually follows.
func (ld *loader) plainDeps() map[string][]string {
	deps := make(map[string][]string, len(ld.dirs))
	for path, e := range ld.dirs {
		var ds []string
		for _, p := range fileImports(e.plain) {
			if _, ok := ld.dirs[p]; ok {
				ds = append(ds, p)
			}
		}
		deps[path] = ds
	}
	return deps
}

// importCycle returns one module-internal import cycle as a path of
// import paths ending where it started, or nil when the graph is acyclic.
func importCycle(deps map[string][]string) []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(deps))
	var stack []string
	var visit func(p string) []string
	visit = func(p string) []string {
		color[p] = gray
		stack = append(stack, p)
		for _, d := range deps[p] {
			switch color[d] {
			case white:
				if cyc := visit(d); cyc != nil {
					return cyc
				}
			case gray:
				for i, s := range stack {
					if s == d {
						return append(append([]string(nil), stack[i:]...), d)
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[p] = black
		return nil
	}
	paths := make([]string, 0, len(deps))
	for p := range deps {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if color[p] == white {
			if cyc := visit(p); cyc != nil {
				return cyc
			}
		}
	}
	return nil
}

// Import resolves an import path: module-internal packages are
// type-checked from the scanned sources, once per package, and everything
// else is delegated to the standard-library importer. Safe for concurrent
// use.
func (ld *loader) Import(path string) (*types.Package, error) {
	e, ok := ld.dirs[path]
	if !ok {
		return ld.std.Import(path)
	}
	e.once.Do(func() { e.pkg, e.err = ld.check(path, e.plain, newInfo()) })
	return e.pkg, e.err
}

// check type-checks one file set as the package at path. On failure it
// reports up to the first three positioned type errors, so the user sees
// what to fix instead of a bare "type errors" or an empty package.
func (ld *loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	var errs []error
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if len(errs) > 0 {
		const maxShown = 3
		shown := errs
		suffix := ""
		if len(errs) > maxShown {
			shown = errs[:maxShown]
			suffix = fmt.Sprintf(" (and %d more)", len(errs)-maxShown)
		}
		msgs := make([]string, len(shown))
		for i, e := range shown {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("type errors: %s%s", strings.Join(msgs, "; "), suffix)
	}
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// newInfo allocates the full set of type-checker maps the analyzers use.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// a go.mod file.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
