package edgen

import (
	"fmt"
	"math"
	"testing"

	"extradeep/internal/epoch"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/propcheck"
	"extradeep/internal/trace"
)

// TestPropGeneratedTracesAreValid: every generated trace satisfies the
// trace package's own structural Validate contract.
func TestPropGeneratedTracesAreValid(t *testing.T) {
	propcheck.Check(t, Trace(TraceShape{}), func(tr trace.Trace) error {
		return tr.Validate()
	})
}

// TestPropGeneratedProfileSetsAreValid: every profile in a generated set
// passes Validate, carries its canonical file-name identity, and
// identities are unique across the set.
func TestPropGeneratedProfileSetsAreValid(t *testing.T) {
	propcheck.Check(t, ProfileSet(SetShape{}), func(ps []*profile.Profile) error {
		if len(ps) == 0 {
			return fmt.Errorf("empty profile set")
		}
		seen := map[string]bool{}
		for _, p := range ps {
			if err := p.Validate(); err != nil {
				return err
			}
			name := p.FileName()
			if seen[name] {
				return fmt.Errorf("duplicate identity %s", name)
			}
			seen[name] = true
			app, config, rank, rep, ok := profile.ParseFileName(name)
			if !ok || app != p.App || rank != p.Rank || rep != p.Rep || len(config) != len(p.Config) {
				return fmt.Errorf("file name %s does not round-trip", name)
			}
		}
		return nil
	})
}

// TestPropEpochParamsWithinOracleRange: generated setups validate, keep M
// dividing G, and stay inside the exactly-representable float range the
// big-int oracle comparison relies on.
func TestPropEpochParamsWithinOracleRange(t *testing.T) {
	propcheck.Check(t, EpochParams(), func(p epoch.Params) error {
		if err := p.Validate(); err != nil {
			return err
		}
		if math.Mod(p.DataParallel, p.ModelParallel) != 0 {
			return fmt.Errorf("M=%g does not divide G=%g", p.ModelParallel, p.DataParallel)
		}
		for _, v := range []float64{p.BatchSize, p.TrainSamples, p.ValSamples, p.DataParallel, p.ModelParallel} {
			if v != math.Trunc(v) || v > 1e9 {
				return fmt.Errorf("value %g outside the exact integer range", v)
			}
		}
		return nil
	})
}

// TestPropGeneratedPointsAreCanonical: points have the requested
// dimensionality and positive finite coordinates.
func TestPropGeneratedPointsAreCanonical(t *testing.T) {
	propcheck.Check(t, Point(2), func(pt measurement.Point) error {
		if len(pt) != 2 {
			return fmt.Errorf("point %v has %d dims, want 2", pt, len(pt))
		}
		for _, v := range pt {
			if !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("coordinate %v not positive finite", v)
			}
		}
		return nil
	})
}
