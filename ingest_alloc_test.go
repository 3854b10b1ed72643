package extradeep_test

import (
	"context"
	"runtime"
	"testing"

	"extradeep/internal/ingest"
	"extradeep/internal/pipeline"
)

// TestIngestAllocationSurvivesGC: the ingest stage's decode scratch is
// held across garbage collections, so loading the same corpus allocates
// the same whether or not a collection ran since the last load. Each of
// ten loads of each corpus on one worker follows a forced collection;
// after the first, which fills the scratch, every load must allocate
// within 16 KB of the second: os.ReadDir's own pooled 8 KB buffer may or
// may not survive a collection. A scratch kept in a sync.Pool is
// dropped by the collections and re-allocated by every load (about
// 0.45 MB on the grid corpus).
func TestIngestAllocationSurvivesGC(t *testing.T) {
	for _, c := range ingestCorpora {
		t.Run(c.name, func(t *testing.T) {
			dir := writeCorpus(t, c.profiles(t))
			pl := pipeline.New(pipeline.Config{Workers: 1})
			var alloc [10]uint64
			for i := range alloc {
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := pl.Ingest(context.Background(), dir, "json", ingest.Options{}); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				alloc[i] = after.TotalAlloc - before.TotalAlloc
			}
			want := alloc[1]
			for i, got := range alloc[2:] {
				if diff := max(got, want) - min(got, want); diff > 16<<10 {
					t.Errorf("load %d after a collection allocated %d bytes, load 2 %d (loads: %v)", i+3, got, want, alloc)
				}
			}
		})
	}
}
