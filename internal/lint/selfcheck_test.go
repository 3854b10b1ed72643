package lint

import (
	"go/ast"
	"go/types"
	"sync"
	"testing"
)

// selfModule loads the surrounding module once for the tests that check
// the repository itself.
var selfModule = sync.OnceValues(func() (*Module, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return LoadModule(root)
})

// loadSelf returns the surrounding module, skipping in short mode.
func loadSelf(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checking the whole module is not short")
	}
	mod, err := selfModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	return mod
}

// TestSelfCheck is the tier-1 enforcement point: it loads the surrounding
// module and runs the full default analyzer suite over every package,
// including tests. Any finding fails `go test ./...`, so the repository
// cannot regress below a clean `go run ./cmd/edlint ./...`.
func TestSelfCheck(t *testing.T) {
	mod := loadSelf(t)
	diags := Run(mod, DefaultAnalyzers(), nil)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d findings; fix them or suppress with //edlint:ignore <analyzer> <reason>", len(diags))
	}
}

// TestHotPathDefaultsNameLiveDeclarations: every hotPathDefaults pattern
// must designate at least one function declaration of the module, so a
// deleted or renamed hot function cannot leave a pattern that silently
// polices nothing.
func TestHotPathDefaultsNameLiveDeclarations(t *testing.T) {
	mod := loadSelf(t)
	live := make([]bool, len(hotPathDefaults))
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				for i, d := range hotPathDefaults {
					live[i] = live[i] || d.matches(pkg.Path, displayName(fn))
				}
			}
		}
	}
	for i, d := range hotPathDefaults {
		if !live[i] {
			t.Errorf("hotPathDefaults entry {%q, %q} matches no declaration in the module", d.pkg, d.pattern)
		}
	}
}
