package lint

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// This file is edlint's findings cache and the high-level Lint entry
// point that ties it to the loader and the analyzers. When the module's
// content (every .go file plus go.mod, SHA-256 over bytes), the analyzer
// set, the toolchain and the analyzing executable are all unchanged, the
// previous run's diagnostics are returned without loading anything. Any
// edit anywhere changes the key; reverting the edit restores the old key
// and its hit. Package filters bypass the cache: a filtered run's
// findings are a subset and must never be served as the whole.
//
// Every failure mode — unreadable file, corrupt gob, version skew —
// degrades to a cache miss and a full load. Writes go through a temp
// file + rename so a crashed run can't leave a torn entry.

// lintCacheFormat versions the cache file layout; bump on change.
const lintCacheFormat = 1

// Options configures a Lint run. The zero value runs the default
// analyzer suite over every package without the findings cache.
type Options struct {
	// Analyzers to run; nil means DefaultAnalyzers().
	Analyzers []*Analyzer
	// Filter restricts reported packages (nil selects everything). A
	// non-nil filter bypasses the findings cache.
	Filter func(*Package) bool
	// CacheDir is the findings cache directory; "" disables the cache.
	CacheDir string
}

// Stats reports where a Lint run's time went and how the cache resolved.
type Stats struct {
	// Packages is the number of analysis units checked (0 on a findings
	// cache hit, which loads nothing).
	Packages int
	// Findings is the number of diagnostics returned.
	Findings int
	// LoadMS and AnalyzeMS split the run's wall time; on a findings hit
	// LoadMS covers only the module hash.
	LoadMS    int64
	AnalyzeMS int64
	// FindingsCache is "hit", "miss", "bypass" (filter set), or "off".
	FindingsCache string
}

// DefaultCacheDir returns the per-user edlint cache directory, or "" when
// the platform reports no user cache location (caching is then disabled).
func DefaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "edlint")
}

// Lint loads the module rooted at root and runs the analyzers over it,
// consulting and refreshing the on-disk findings cache. The returned
// diagnostics are byte-identical to a cacheless run: the cache keys on
// content, and the parity is pinned by TestLintCacheParity and the
// propcheck suite.
func Lint(root string, opts Options) ([]Diagnostic, *Stats, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = DefaultAnalyzers()
	}
	stats := &Stats{FindingsCache: "off"}
	start := time.Now()

	// On a findings hit nothing needs loading at all.
	var findKey string
	if opts.CacheDir != "" {
		if opts.Filter != nil {
			stats.FindingsCache = "bypass"
		} else {
			findKey, err = findingsKey(root, analyzers)
			if err != nil {
				return nil, nil, err
			}
			if diags, ok := loadFindings(opts.CacheDir, findKey); ok {
				stats.FindingsCache = "hit"
				stats.Findings = len(diags)
				stats.LoadMS = time.Since(start).Milliseconds()
				return diags, stats, nil
			}
			stats.FindingsCache = "miss"
		}
	}

	mod, err := LoadModule(root)
	if err != nil {
		return nil, nil, err
	}
	stats.Packages = len(mod.Pkgs)
	stats.LoadMS = time.Since(start).Milliseconds()

	mark := time.Now()
	diags := Run(mod, analyzers, opts.Filter)
	stats.AnalyzeMS = time.Since(mark).Milliseconds()
	stats.Findings = len(diags)

	if findKey != "" {
		saveFindings(opts.CacheDir, findKey, diags)
	}
	return diags, stats, nil
}

// findingsFile is the on-disk shape of one cached run.
type findingsFile struct {
	Format int
	Key    string
	Diags  []Diagnostic
}

// findingsKey fingerprints everything the diagnostics depend on: the
// cache format, the toolchain, the analyzing executable, the module root
// and its full .go/go.mod content, the analyzer suite, and the hot-path
// default table the perf analyzers police (//edlint:hotpath directives
// live in file content and are covered by the content hash). Content
// hashes, not mtimes: touching a file without changing it keeps the key,
// and reverting an edit restores it.
func findingsKey(root string, analyzers []*Analyzer) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "edlint-findings/%d\n%s/%s/%s\n", lintCacheFormat, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	exe, stamp, err := executableStamp()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(h, "exe %s %s\n", exe, stamp)
	fmt.Fprintf(h, "root %s\n", root)
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	sort.Strings(names)
	fmt.Fprintf(h, "analyzers %s\n", strings.Join(names, ","))
	fmt.Fprintf(h, "hotpaths %s\n", hotPathDefaultsDigest())
	if err := hashModuleContent(h, root); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// executableStamp identifies the running binary by path, size and mtime:
// rebuilding edlint (or the test binary) with changed analyzer logic must
// invalidate cached findings even though no module file moved.
func executableStamp() (string, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", "", err
	}
	fi, err := os.Stat(exe)
	if err != nil {
		return "", "", err
	}
	return exe, fmt.Sprintf("%d/%d", fi.Size(), fi.ModTime().UnixNano()), nil
}

// hashModuleContent feeds every module source file the loader would parse
// (plus go.mod) into h as "relpath\x00sha256(content)\n" records in
// sorted path order, applying the loader's directory skip rules so edits
// the load cannot see (testdata, vendor, hidden trees) don't churn keys.
func hashModuleContent(h interface{ Write(p []byte) (int, error) }, root string) error {
	var rels []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "vendor" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		rel, rerr := filepath.Rel(root, p)
		if rerr != nil {
			return rerr
		}
		rels = append(rels, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return err
	}
	rels = append(rels, "go.mod")
	sort.Strings(rels)
	for _, rel := range rels {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		_, _ = fmt.Fprintf(h, "%s\x00%s\n", rel, hex.EncodeToString(sum[:]))
	}
	return nil
}

// findingsPath addresses one cached run by a prefix of its key; the full
// key is re-verified inside the file, so prefix collisions only miss.
func findingsPath(cacheDir, key string) string {
	return filepath.Join(cacheDir, "find-"+key[:16]+".bin")
}

// loadFindings returns the cached diagnostics for key, if any.
func loadFindings(cacheDir, key string) ([]Diagnostic, bool) {
	data, err := os.ReadFile(findingsPath(cacheDir, key))
	if err != nil {
		return nil, false
	}
	var f findingsFile
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&f); err != nil ||
		f.Format != lintCacheFormat || f.Key != key {
		return nil, false
	}
	return f.Diags, true
}

// saveFindings persists one run's diagnostics. Best-effort: a failure to
// save only costs the next run its hit, so errors are deliberately
// dropped.
func saveFindings(cacheDir, key string, diags []Diagnostic) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(findingsFile{Format: lintCacheFormat, Key: key, Diags: diags}); err != nil {
		return
	}
	_ = writeFileAtomic(findingsPath(cacheDir, key), buf.Bytes())
}

// writeFileAtomic writes data via a temp file + rename, so readers only
// ever observe absent or complete cache entries.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		_ = os.Remove(name)
		return err
	}
	return nil
}
