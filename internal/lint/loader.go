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
	"runtime"
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

// LoadOptions tunes LoadModuleWith's schedule; the loaded module never
// depends on it.
type LoadOptions struct {
	// Workers bounds type-checking concurrency; <=0 means GOMAXPROCS.
	Workers int
}

// LoadStats reports how a LoadModuleWith call ran.
type LoadStats struct {
	// Workers is the effective concurrency bound.
	Workers int
}

// dirEntry is one source directory of the module, split into the file
// groups Go's build model distinguishes.
type dirEntry struct {
	dir     string // absolute
	path    string // import path
	plain   []*ast.File
	inTest  []*ast.File // _test.go, same package name
	extTest []*ast.File // _test.go, package name + "_test"
	pkgName string
}

// loader resolves and type-checks packages on demand, memoizing results.
// After scan() the dirs map is read-only; plain/loading are guarded by mu
// so phase-2 units can import concurrently.
type loader struct {
	fset    *token.FileSet
	dirs    map[string]*dirEntry // import path → entry
	mu      sync.Mutex
	plain   map[string]*types.Package
	loading map[string]bool
	std     *stdImporter
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
func LoadModule(root string) (*Module, error) {
	mod, _, err := LoadModuleWith(root, LoadOptions{})
	return mod, err
}

// LoadModuleWith is LoadModule with bounded parallel type-checking
// across the module's import DAG. The load runs in two phases: plain
// (importable) packages are checked level by level along the dependency
// order, then every analysis unit — which only ever imports
// already-memoized plain packages — is checked concurrently. Results are
// deterministic regardless of worker count: unit order is path order,
// and on failure the error of the first unit in that order wins.
func LoadModuleWith(root string, opts LoadOptions) (*Module, *LoadStats, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		dirs:    make(map[string]*dirEntry),
		plain:   make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
	if err := ld.scan(root, modPath); err != nil {
		return nil, nil, err
	}
	if len(ld.dirs) == 0 {
		return nil, nil, fmt.Errorf("lint: module %s at %s contains no Go files", modPath, root)
	}
	if ld.std, err = newStdImporter(fset, root, ld.externalImports()); err != nil {
		return nil, nil, err
	}

	stats := &LoadStats{Workers: opts.Workers}
	if stats.Workers <= 0 {
		stats.Workers = runtime.GOMAXPROCS(0)
	}

	// The scheduler needs the plain-package import DAG up front: the
	// level plan comes from it, and a cycle would otherwise deadlock-shape
	// into a false "still loading" answer under concurrency instead of
	// the clear report the sequential walk used to give.
	deps := ld.plainDeps()
	if cyc := importCycle(deps); cyc != nil {
		return nil, nil, fmt.Errorf("lint: import cycle: %s", strings.Join(cyc, " → "))
	}

	// Phase 1: memoize every plain package any unit will import, level by
	// level so that a package's dependencies are always already built when
	// its own check starts. Within a level, packages are independent.
	for _, level := range topoLevels(ld.neededPlain(deps), deps) {
		level := level
		err := runPool(stats.Workers, len(level), func(i int) error {
			if _, err := ld.Import(level[i]); err != nil {
				return fmt.Errorf("lint: %s: %w", level[i], err)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}

	// Phase 2: check every analysis unit. Units never depend on each
	// other — they import only plain packages — so they all run at once.
	paths := make([]string, 0, len(ld.dirs))
	for p := range ld.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	type unitSpec struct {
		path   string
		dir    string
		files  []*ast.File
		isTest bool
	}
	var specs []unitSpec
	for _, path := range paths {
		e := ld.dirs[path]
		// Unit 1: the package itself, with in-package tests when present.
		if files := append(append([]*ast.File(nil), e.plain...), e.inTest...); len(files) > 0 {
			specs = append(specs, unitSpec{path, e.dir, files, len(e.inTest) > 0})
		}
		// Unit 2: the external test package, if any.
		if len(e.extTest) > 0 {
			specs = append(specs, unitSpec{path + "_test", e.dir, e.extTest, true})
		}
	}
	units := make([]*Package, len(specs))
	err = runPool(stats.Workers, len(specs), func(i int) error {
		s := specs[i]
		info := newInfo()
		tpkg, err := ld.check(s.path, s.files, info)
		if err != nil {
			return fmt.Errorf("lint: %s: %w", s.path, err)
		}
		units[i] = &Package{
			Path:   s.path,
			Dir:    s.dir,
			Files:  s.files,
			Types:  tpkg,
			Info:   info,
			IsTest: s.isTest,
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return &Module{Root: root, Path: modPath, Fset: fset, Pkgs: units}, stats, nil
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
	files, _, err := parseDir(fset, dir)
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
	ld := &loader{
		fset:    fset,
		dirs:    map[string]*dirEntry{},
		plain:   map[string]*types.Package{},
		loading: map[string]bool{},
		std:     std,
	}
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
		files, pkgName, perr := parseDir(ld.fset, p)
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
		e := &dirEntry{dir: p, path: path, pkgName: pkgName}
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
// returns the files in name order plus the non-test package name.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	var files []*ast.File
	pkgName := ""
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, "", err
		}
		files = append(files, f)
		if !strings.HasSuffix(name, "_test.go") {
			pkgName = f.Name.Name
		}
	}
	return files, pkgName, nil
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
	return dedupSorted(out)
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

// neededPlain returns, transitively closed and sorted, every module
// package some analysis unit imports — the set phase 1 must memoize.
// Test files participate as importers here: an external test package's
// self-import makes its package under test needed.
func (ld *loader) neededPlain(deps map[string][]string) []string {
	need := make(map[string]bool)
	var add func(p string)
	add = func(p string) {
		if need[p] {
			return
		}
		need[p] = true
		for _, d := range deps[p] {
			add(d)
		}
	}
	dirPaths := make([]string, 0, len(ld.dirs))
	for p := range ld.dirs {
		dirPaths = append(dirPaths, p)
	}
	sort.Strings(dirPaths)
	for _, dp := range dirPaths {
		e := ld.dirs[dp]
		for _, p := range fileImports(e.plain, e.inTest, e.extTest) {
			if _, ok := ld.dirs[p]; ok {
				add(p)
			}
		}
	}
	out := make([]string, 0, len(need))
	for p := range need {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
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

// topoLevels layers the needed packages by dependency depth: level 0 has
// no module-internal imports, level k imports only levels < k. Levels are
// sorted, so the schedule is deterministic for any worker count.
func topoLevels(needed []string, deps map[string][]string) [][]string {
	inNeed := make(map[string]bool, len(needed))
	for _, p := range needed {
		inNeed[p] = true
	}
	depth := make(map[string]int, len(needed))
	var rank func(p string) int
	rank = func(p string) int {
		if d, ok := depth[p]; ok {
			return d
		}
		depth[p] = 0 // settled below; cycles were rejected before this runs
		max := 0
		for _, d := range deps[p] {
			if inNeed[d] {
				if r := rank(d) + 1; r > max {
					max = r
				}
			}
		}
		depth[p] = max
		return max
	}
	var levels [][]string
	for _, p := range needed {
		r := rank(p)
		for len(levels) <= r {
			levels = append(levels, nil)
		}
		levels[r] = append(levels[r], p)
	}
	for _, lvl := range levels {
		sort.Strings(lvl)
	}
	return levels
}

// dedupSorted removes adjacent duplicates from a sorted slice in place.
func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// runPool runs fn(0..n-1) on at most workers goroutines and returns the
// error of the smallest failing index, mirroring internal/pipeline's
// ForEach contract: results are deterministic for any worker count, and
// every started task runs to completion before the pool returns.
func runPool(workers, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	tasks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		tasks <- i
	}
	close(tasks)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Import resolves an import path: module-internal packages are
// type-checked from the scanned sources (memoized, cycle-checked), and
// everything else is delegated to the standard-library importer. Safe for
// concurrent use; LoadModuleWith's level schedule guarantees no two
// goroutines ever build the same plain package.
func (ld *loader) Import(path string) (*types.Package, error) {
	e, ok := ld.dirs[path]
	if !ok {
		return ld.std.Import(path)
	}
	ld.mu.Lock()
	if pkg, ok := ld.plain[path]; ok {
		ld.mu.Unlock()
		return pkg, nil
	}
	if ld.loading[path] {
		ld.mu.Unlock()
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	ld.loading[path] = true
	ld.mu.Unlock()

	pkg, err := ld.check(path, e.plain, newInfo())

	ld.mu.Lock()
	delete(ld.loading, path)
	if err == nil {
		ld.plain[path] = pkg
	}
	ld.mu.Unlock()
	return pkg, err
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
