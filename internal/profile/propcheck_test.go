package profile_test

import (
	"fmt"
	"testing"

	"extradeep/internal/profile"
	"extradeep/internal/propcheck"
)

// nameCase is an arbitrary canonical profile identity.
type nameCase struct {
	app    string
	config []float64
	rank   int
	rep    int
}

func nameCaseGen() propcheck.Gen[nameCase] {
	apps := []string{"cifar10", "imdb", "mlp", "resnet50", "app.v2", "a_b"}
	cfg := propcheck.SliceOf(propcheck.Float64Range(-1e6, 1e6), 1, 3)
	return propcheck.Gen[nameCase]{
		Generate: func(r *propcheck.Rand) nameCase {
			return nameCase{
				app:    apps[r.Intn(len(apps))],
				config: cfg.Generate(r),
				rank:   r.IntRange(0, 999),
				rep:    r.IntRange(1, 99),
			}
		},
		Describe: func(c nameCase) string {
			return profile.FileName(c.app, c.config, c.rank, c.rep)
		},
	}
}

// TestPropFileNameRoundTrip: ParseFileName inverts FileName exactly for
// any finite configuration — including fractional, negative and
// scientific-notation values and app names containing dots.
func TestPropFileNameRoundTrip(t *testing.T) {
	propcheck.Check(t, nameCaseGen(), func(c nameCase) error {
		name := profile.FileName(c.app, c.config, c.rank, c.rep)
		app, config, rank, rep, ok := profile.ParseFileName(name)
		if !ok {
			return fmt.Errorf("canonical name %q did not parse", name)
		}
		if app != c.app || rank != c.rank || rep != c.rep {
			return fmt.Errorf("%q parsed to (%s, mpi%d, r%d), want (%s, mpi%d, r%d)",
				name, app, rank, rep, c.app, c.rank, c.rep)
		}
		if len(config) != len(c.config) {
			return fmt.Errorf("%q parsed %d config values, want %d", name, len(config), len(c.config))
		}
		for i := range config {
			if config[i] != c.config[i] {
				return fmt.Errorf("%q config[%d] = %v, want %v (exact round-trip)", name, i, config[i], c.config[i])
			}
		}
		return nil
	})
}
