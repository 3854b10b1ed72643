package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extradeep/internal/propcheck"
)

// The lint package's property suite drives the incremental cache with
// randomized edit histories over a copy of the interproc fixture module
// and checks the two invariants the cache must never lose:
//
//  1. Parity — warm findings are byte-identical to the matching cold
//     reference after every mutation. Touch/edit/revert mutations are
//     comment-only, so they change content keys without changing
//     findings; the hotpath-toggle mutation flips a //edlint:hotpath
//     directive on report/perf.go, so the expected findings switch
//     between the pristine and the directive reference — a directive-only
//     edit is semantically real and must never be served a stale answer.
//  2. Key discipline — a run is a findings-cache hit exactly when the
//     module's content state has been linted before: touching a file
//     (same bytes, fresh mtime) keeps the hit, an unseen edit forces a
//     miss, and reverting an edit restores the old key and its hit.

// fixtureSourceFiles are the mutable .go files of the interproc fixture,
// relative to the module root.
var fixtureSourceFiles = []string{
	"internal/helpers/helpers.go",
	"internal/modeling/modeling.go",
	"internal/pipeline/pipeline.go",
	"report/report.go",
	"report/perf.go",
}

// perfFixtureFile is the file whose hot-path directive the toggle
// mutation flips; hotToggleLine is the inserted doc-comment line.
const (
	perfFixtureFile = "report/perf.go"
	hotToggleLine   = "//edlint:hotpath toggled by the cache propcheck\n"
)

// cacheMutation is one step of an edit history.
type cacheMutation struct {
	op   int // 0 touch, 1 edit (append a unique comment), 2 revert, 3 toggle hotpath
	file int // index into fixtureSourceFiles (op 3 always targets perf.go)
}

// cacheHistory is one generated case.
type cacheHistory struct {
	muts []cacheMutation
}

func cacheHistoryGen() propcheck.Gen[cacheHistory] {
	opNames := []string{"touch", "edit", "revert", "hotpath"}
	return propcheck.Gen[cacheHistory]{
		Generate: func(r *propcheck.Rand) cacheHistory {
			n := r.IntRange(1, 3)
			muts := make([]cacheMutation, n)
			for i := range muts {
				muts[i] = cacheMutation{op: r.Intn(4), file: r.Intn(len(fixtureSourceFiles))}
				if muts[i].op == 3 {
					muts[i].file = fixtureFileIndex(perfFixtureFile)
				}
			}
			return cacheHistory{muts: muts}
		},
		Shrink: func(h cacheHistory) []cacheHistory {
			var out []cacheHistory
			for i := range h.muts {
				rest := append(append([]cacheMutation(nil), h.muts[:i]...), h.muts[i+1:]...)
				out = append(out, cacheHistory{muts: rest})
			}
			return out
		},
		Describe: func(h cacheHistory) string {
			parts := make([]string, len(h.muts))
			for i, m := range h.muts {
				parts[i] = fmt.Sprintf("%s(%s)", opNames[m.op], filepath.Base(fixtureSourceFiles[m.file]))
			}
			return "[" + strings.Join(parts, " ") + "]"
		},
	}
}

// fixtureFileIndex resolves a fixture path to its mutation index.
func fixtureFileIndex(rel string) int {
	for i, f := range fixtureSourceFiles {
		if f == rel {
			return i
		}
	}
	panic("unknown fixture file " + rel)
}

// withHotDirective inserts the toggle directive into perf.go's pristine
// content, as the last line of BuildLabels' doc comment.
func withHotDirective(pristine []byte) []byte {
	return []byte(strings.Replace(string(pristine),
		"func BuildLabels", hotToggleLine+"func BuildLabels", 1))
}

// TestPropLintCacheParity: for any short history of touch/edit/revert/
// hotpath-toggle mutations, every cached run reproduces the matching cold
// reference findings byte-for-byte, and the findings-cache hit/miss state
// equals "this exact content state was linted before". The references
// are cacheless runs, so the chain is cacheless ≡ priming (miss) ≡
// findings hit.
func TestPropLintCacheParity(t *testing.T) {
	if testing.Short() {
		t.Skip("lints a module per mutation; skipped in -short")
	}
	cacheDir := t.TempDir()

	// Two cacheless references, computed once: comment-only mutations
	// never change findings, and the hotpath toggle switches between
	// exactly these two content states of perf.go.
	refRoot := copyFixtureModule(t)
	refDiags, _, err := Lint(refRoot, Options{})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	reference := formatDiags(refDiags)
	if reference == "" {
		t.Fatal("fixture module produced no findings; the property needs a non-empty reference")
	}

	hotRoot := copyFixtureModule(t)
	hotPerf := filepath.Join(hotRoot, filepath.FromSlash(perfFixtureFile))
	pristinePerf, err := os.ReadFile(hotPerf)
	if err != nil {
		t.Fatalf("reading %s: %v", hotPerf, err)
	}
	if err := os.WriteFile(hotPerf, withHotDirective(pristinePerf), 0o644); err != nil {
		t.Fatalf("writing hot perf.go: %v", err)
	}
	hotDiags, _, err := Lint(hotRoot, Options{})
	if err != nil {
		t.Fatalf("hot reference run: %v", err)
	}
	hotReference := formatDiags(hotDiags)
	if hotReference == reference {
		t.Fatal("the //edlint:hotpath toggle changed no findings; the directive oracle is vacuous")
	}
	if !strings.Contains(hotReference, "prealloc:") {
		t.Fatalf("the directive reference lacks the expected prealloc finding:\n%s", hotReference)
	}

	editSerial := 0
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 4}, cacheHistoryGen(), func(h cacheHistory) error {
		root, err := os.MkdirTemp("", "edlint-prop-*")
		if err != nil {
			return err
		}
		defer func() { _ = os.RemoveAll(root) }()
		if err := copyTree(filepath.Join("testdata", "src", "interproc"), root); err != nil {
			return err
		}
		pristine := make(map[string][]byte, len(fixtureSourceFiles))
		for _, rel := range fixtureSourceFiles {
			data, err := os.ReadFile(filepath.Join(root, rel))
			if err != nil {
				return err
			}
			pristine[rel] = data
		}

		seen := map[string]bool{}
		// expected picks the reference matching the current directive
		// state of perf.go: the findings oracle, not just the key oracle.
		expected := func() (string, error) {
			cur, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(perfFixtureFile)))
			if err != nil {
				return "", err
			}
			if strings.Contains(string(cur), strings.TrimSpace(hotToggleLine)) {
				return hotReference, nil
			}
			return reference, nil
		}
		runAndCheck := func(step string, wantHit bool) error {
			diags, stats, err := Lint(root, Options{CacheDir: cacheDir})
			if err != nil {
				return fmt.Errorf("%s: %w", step, err)
			}
			want := "miss"
			if wantHit {
				want = "hit"
			}
			if stats.FindingsCache != want {
				return fmt.Errorf("%s: findings cache %s, want %s", step, stats.FindingsCache, want)
			}
			ref, err := expected()
			if err != nil {
				return err
			}
			if got := formatDiags(diags); got != ref {
				return fmt.Errorf("%s: findings diverge from the cold reference for this directive state\n--- got ---\n%s--- want ---\n%s",
					step, got, ref)
			}
			return nil
		}
		state := func() (string, error) { return moduleStateFingerprint(root) }

		fp, err := state()
		if err != nil {
			return err
		}
		if err := runAndCheck("initial run", seen[fp]); err != nil {
			return err
		}
		seen[fp] = true

		for i, m := range h.muts {
			rel := fixtureSourceFiles[m.file]
			abs := filepath.Join(root, rel)
			switch m.op {
			case 0: // touch: same bytes, fresh mtime
				cur, err := os.ReadFile(abs)
				if err != nil {
					return err
				}
				if err := os.WriteFile(abs, cur, 0o644); err != nil {
					return err
				}
			case 1: // edit: append a comment unique across the whole test
				editSerial++
				f, err := os.OpenFile(abs, os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					return err
				}
				if _, err := fmt.Fprintf(f, "\n// propcheck edit %d\n", editSerial); err != nil {
					_ = f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			case 2: // revert to pristine content
				if err := os.WriteFile(abs, pristine[rel], 0o644); err != nil {
					return err
				}
			case 3: // toggle the //edlint:hotpath directive on perf.go
				cur, err := os.ReadFile(abs)
				if err != nil {
					return err
				}
				next := withHotDirective(pristine[rel])
				if strings.Contains(string(cur), strings.TrimSpace(hotToggleLine)) {
					next = pristine[rel]
				}
				if err := os.WriteFile(abs, next, 0o644); err != nil {
					return err
				}
			}
			fp, err := state()
			if err != nil {
				return err
			}
			if err := runAndCheck(fmt.Sprintf("after mutation %d", i+1), seen[fp]); err != nil {
				return err
			}
			seen[fp] = true
		}
		return nil
	})
}

// moduleStateFingerprint hashes the mutable files' current content; two
// equal fingerprints mean the loader sees identical modules. Roots are
// excluded deliberately: the findings key includes the root path, so the
// expectation tracker must too — each case uses one root throughout.
func moduleStateFingerprint(root string) (string, error) {
	h := sha256.New()
	for _, rel := range fixtureSourceFiles {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return "", err
		}
		_, _ = fmt.Fprintf(h, "%s\x00%x\n", rel, sha256.Sum256(data))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestPropPerfAnalyzersParity pins the determinism contract of the perf
// analyzer family over the allocloop fixture module: findings are
// byte-identical between a sequential load (GOMAXPROCS 1) and a parallel
// load at any GOMAXPROCS, and between a cold findings-cache run and the
// warm hit that follows it.
func TestPropPerfAnalyzersParity(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the fixture module per iteration; skipped in -short")
	}
	perf := []*Analyzer{AllocLoop, PreAlloc}
	root := filepath.Join("testdata", "src", "allocloop")

	seqMod, err := loadAtProcs(t, root, 1)
	if err != nil {
		t.Fatalf("sequential load: %v", err)
	}
	seq := formatDiags(Run(seqMod, perf, nil))
	if !strings.Contains(seq, "allocloop: make(") {
		t.Fatalf("the sequential reference lacks the direct allocloop finding; the parity check would be vacuous:\n%s", seq)
	}

	propcheck.CheckConfig(t, propcheck.Config{Iterations: 6}, propcheck.IntRange(2, 8), func(procs int) error {
		mod, err := loadAtProcs(t, root, procs)
		if err != nil {
			return fmt.Errorf("load at GOMAXPROCS %d: %w", procs, err)
		}
		if got := formatDiags(Run(mod, perf, nil)); got != seq {
			return fmt.Errorf("findings at GOMAXPROCS %d diverge from the sequential load\n--- got ---\n%s--- want ---\n%s",
				procs, got, seq)
		}
		return nil
	})

	cacheDir := t.TempDir()
	cold, coldStats, err := Lint(root, Options{CacheDir: cacheDir, Analyzers: perf})
	if err != nil {
		t.Fatalf("cold cached run: %v", err)
	}
	if coldStats.FindingsCache != "miss" {
		t.Fatalf("cold run findings cache = %s, want miss", coldStats.FindingsCache)
	}
	warm, warmStats, err := Lint(root, Options{CacheDir: cacheDir, Analyzers: perf})
	if err != nil {
		t.Fatalf("warm cached run: %v", err)
	}
	if warmStats.FindingsCache != "hit" {
		t.Fatalf("warm run findings cache = %s, want hit", warmStats.FindingsCache)
	}
	if got := formatDiags(cold); got != seq {
		t.Errorf("cold cached findings diverge from the sequential load\n--- got ---\n%s--- want ---\n%s", got, seq)
	}
	if got := formatDiags(warm); got != seq {
		t.Errorf("warm cached findings diverge from the sequential load\n--- got ---\n%s--- want ---\n%s", got, seq)
	}
}

// copyTree copies a directory tree (used by the property, which cannot
// call t.TempDir-based helpers from inside a prop function).
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
