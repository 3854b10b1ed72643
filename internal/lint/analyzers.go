package lint

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultAnalyzers returns the full edlint suite in stable order. This is
// the set the self-check test and cmd/edlint enforce over the repository.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		AllocLoop,
		DivGuard,
		ErrCheck,
		LibPanic,
		LogDomain,
		MapOrder,
		NaNInOut,
		PreAlloc,
		SendGuard,
		WallClock,
	}
}

// Select resolves a comma-separated list of analyzer names against the
// default suite; an empty spec selects everything.
func Select(spec string) ([]*Analyzer, error) {
	all := DefaultAnalyzers()
	if strings.TrimSpace(spec) == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	names := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	sort.Strings(names)
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return all, nil
	}
	return out, nil
}
