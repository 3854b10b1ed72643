package lint

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// writeTestModule materializes a throwaway module from a file map and
// loads it; the interproc goldens pin the analyzer-facing behaviour,
// these tests pin the summary table itself.
func writeTestModule(t *testing.T, files map[string]string) *Module {
	t.Helper()
	root := t.TempDir()
	for _, rel := range sortedKeys(files) {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(files[rel]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading test module: %v", err)
	}
	return mod
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSummarizeRecursiveFixpoint: a clock read inside a mutual-recursion
// cycle must reach every member of the SCC — the fixpoint, not a single
// bottom-up pass, is what makes Pong (which only calls Ping) tainted.
func TestSummarizeRecursiveFixpoint(t *testing.T) {
	mod := writeTestModule(t, map[string]string{
		"go.mod": "module fix\n\ngo 1.24\n",
		"a/a.go": `package a

import "time"

func now() string { return time.Now().String() }

func Ping(n int) string {
	if n == 0 {
		return now()
	}
	return Pong(n - 1)
}

func Pong(n int) string { return Ping(n - 1) }
`,
	})
	sums := Summarize(mod)
	for _, name := range []string{"now", "Ping", "Pong"} {
		s := sums.funcs["fix/a."+name]
		if s == nil {
			t.Fatalf("no summary for fix/a.%s (%d summaries total)", name, sums.Len())
		}
		if s.ReadsClock == nil {
			t.Errorf("fix/a.%s: ReadsClock is nil; the SCC fixpoint must carry the clock read around the Ping/Pong cycle", name)
			continue
		}
		if last := s.ReadsClock.Chain[len(s.ReadsClock.Chain)-1]; last != "time.Now" {
			t.Errorf("fix/a.%s: trace ends at %q, want the time.Now root", name, last)
		}
	}
}
