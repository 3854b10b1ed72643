package extradeep_test

import (
	"bytes"
	"context"
	"os"
	"testing"

	"extradeep/internal/core"
	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/pipeline"
)

// fitCacheCap is the number of point sets the modeling fit cache holds
// (modeling's basisCacheCap): publishing one more empties it.
const fitCacheCap = 256

// evictFitCache fits fitCacheCap+1 distinct one-parameter point sets, so
// no point set cached before is cached after.
func evictFitCache(t *testing.T) {
	t.Helper()
	for i := 0; i <= fitCacheCap; i++ {
		xs := []float64{2, 4, 8, 16, 32 + float64(i+1)/64}
		points := make([]measurement.Point, len(xs))
		values := make([]float64, len(xs))
		for j, x := range xs {
			points[j] = measurement.Point{x}
			values[j] = 3 + 0.5*x
		}
		if _, err := modeling.Fit(points, values, modeling.SmallOptions()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDesignRecordsColdWarmIdentical fits the 5×5 and 9×9 grid campaigns
// with the strong-scaling search space three times: with none of their
// point sets in the fit cache (cold: every design record is built), at
// once again (warm: every record is reused), and after other point sets
// emptied the cache past its cap (rebuilt). The encoded model sets must
// be byte-identical, and every run must score and replay exactly as many
// hypotheses as the engine did before it kept design records (the
// counts below), so the records change no guard decision.
func TestDesignRecordsColdWarmIdentical(t *testing.T) {
	if os.Getenv("EDFIT_ORACLE") != "" {
		t.Skip("the oracle fit path does not run the guard")
	}
	guard := map[int][2]int64{ // {scored, replayed} per campaign
		5: {22847, 2027},
		9: {23745, 1855},
	}
	for _, k := range []int{5, 9} {
		aggs, setup := gridCampaign(t, k)
		pl := pipeline.New(pipeline.Config{Modeling: modeling.StrongScalingOptions()})
		run := func(leg string) []byte {
			s0, r0 := modeling.GuardCounts()
			ms, err := pl.BuildModels(context.Background(), aggs, setup)
			if err != nil {
				t.Fatalf("%dx%d %s: %v", k, k, leg, err)
			}
			s1, r1 := modeling.GuardCounts()
			if got := [2]int64{s1 - s0, r1 - r0}; got != guard[k] {
				t.Errorf("%dx%d %s: scored %d and replayed %d hypotheses, want %d and %d", k, k, leg, got[0], got[1], guard[k][0], guard[k][1])
			}
			data, err := core.EncodeModels(ms)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		evictFitCache(t)
		cold := run("cold")
		warm := run("warm")
		evictFitCache(t)
		rebuilt := run("rebuilt")
		if !bytes.Equal(warm, cold) {
			t.Errorf("%dx%d: the warm cache's models differ from the cold cache's", k, k)
		}
		if !bytes.Equal(rebuilt, cold) {
			t.Errorf("%dx%d: the models after emptying the cache differ from the cold cache's", k, k)
		}
	}
}
