package serve_test

// The protocol property suite: seeded, replayable propcheck properties
// over the full HTTP surface — fit parity with the batch pipeline,
// upload-order/partition invariance, and concurrent-client safety.
// Campaign fits are expensive, so every property runs a small iteration
// sweep (EDCHECK_ITERS multiplies it in the long-haul gate).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"extradeep/internal/pipeline"
	"extradeep/internal/propcheck"
	"extradeep/internal/resilience"
	"extradeep/internal/serve"
)

// campaignShape is the generated input of the protocol properties: which
// rank counts were measured, how many repetitions, and the simulation
// seed. Every shape yields a modelable campaign (≥5 distinct
// configurations, the degradation gate's minimum).
type campaignShape struct {
	Ranks []int
	Reps  int
	Seed  int64
}

// rankPool is the universe of measured rank counts shapes draw from.
var rankPool = []int{2, 4, 6, 8, 10, 12, 16}

// genShape draws a campaign shape: 5 or 6 distinct rank counts, 1–2
// repetitions, and an arbitrary simulation seed.
func genShape() propcheck.Gen[campaignShape] {
	return propcheck.Gen[campaignShape]{
		Generate: func(r *propcheck.Rand) campaignShape {
			n := r.IntRange(5, 6)
			perm := r.Perm(len(rankPool))
			ranks := make([]int, n)
			for i := 0; i < n; i++ {
				ranks[i] = rankPool[perm[i]]
			}
			return campaignShape{Ranks: ranks, Reps: r.IntRange(1, 2), Seed: r.Int64Range(1, 1<<30)}
		},
		Describe: func(s campaignShape) string {
			return fmt.Sprintf("campaign{ranks=%v reps=%d seed=%d}", s.Ranks, s.Reps, s.Seed)
		},
	}
}

// TestPropServeFitParity: uploading a campaign through the API yields a
// model set byte-identical to the batch pipeline run over the same
// files. Parity is the service's core contract — an API client and a CLI
// user asking the same question must get the same answer.
func TestPropServeFitParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full fit campaigns are too slow for -short")
	}
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 3}, genShape(), func(shape campaignShape) error {
		files := makeCampaign(t, shape.Ranks, shape.Reps, shape.Seed)
		s := startServer(t, serve.Config{})
		s.mustUpload(t, testApp, contentsOf(files))
		snap := s.settle(t, testApp)
		if snap.Generation < 1 {
			return fmt.Errorf("settled at generation %d, want >= 1", snap.Generation)
		}
		apiModels := s.models(t, testApp)

		// The reference side runs over the server's own spool directory:
		// the server spools uploads verbatim, so this is exactly "the
		// same files" a batch user would analyze.
		refModels := batchModels(t, s.spool+"/"+testApp, 1)
		if !bytes.Equal(apiModels, refModels) {
			return fmt.Errorf("API model set (%d bytes) differs from batch pipeline (%d bytes)", len(apiModels), len(refModels))
		}
		return nil
	})
}

// partition is a generated upload plan: an order permutation of the
// campaign files and cut points splitting them into sequential batches.
type partition struct {
	Shape campaignShape
	// Order is a permutation seed for the file order.
	Order int64
	// Batches is how many sequential uploads the files split into.
	Batches int
}

func genPartition() propcheck.Gen[partition] {
	shape := genShape()
	return propcheck.Gen[partition]{
		Generate: func(r *propcheck.Rand) partition {
			return partition{Shape: shape.Generate(r), Order: r.Int64Range(1, 1<<30), Batches: r.IntRange(2, 4)}
		},
		Describe: func(p partition) string {
			return fmt.Sprintf("partition{ranks=%v reps=%d seed=%d order=%d batches=%d}",
				p.Shape.Ranks, p.Shape.Reps, p.Shape.Seed, p.Order, p.Batches)
		},
	}
}

// splitContents shuffles the campaign files by the partition's order
// seed and cuts them into the requested number of non-empty batches.
func splitContents(files map[string]string, order int64, batches int) [][]string {
	contents := contentsOf(files)
	r := propcheck.NewRand(order)
	r.Shuffle(len(contents), func(i, j int) { contents[i], contents[j] = contents[j], contents[i] })
	if batches > len(contents) {
		batches = len(contents)
	}
	per := (len(contents) + batches - 1) / batches
	var out [][]string
	for start := 0; start < len(contents); start += per {
		end := start + per
		if end > len(contents) {
			end = len(contents)
		}
		out = append(out, contents[start:end])
	}
	return out
}

// TestPropServeIncremental: any upload order and any partition of a
// campaign into sequential batches converges to the same final model set
// as uploading everything at once. Intermediate states may legitimately
// be un-modelable (the degradation gate refuses < 5 configurations);
// only the settled end state is pinned.
func TestPropServeIncremental(t *testing.T) {
	if testing.Short() {
		t.Skip("full fit campaigns are too slow for -short")
	}
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 3}, genPartition(), func(p partition) error {
		files := makeCampaign(t, p.Shape.Ranks, p.Shape.Reps, p.Shape.Seed)

		// Incremental path: batches uploaded one at a time, settling in
		// between so every intermediate campaign actually runs.
		inc := startServer(t, serve.Config{Config: pipeline.Config{Checkpoint: &resilience.Store{Dir: t.TempDir()}, Resume: true}})
		for _, batch := range splitContents(files, p.Order, p.Batches) {
			status, body := inc.upload(t, testApp, "json", batch)
			if status != http.StatusAccepted {
				return fmt.Errorf("incremental upload refused: %d %s", status, body)
			}
		}
		snap := inc.settle(t, testApp)
		if snap == nil {
			return fmt.Errorf("incremental server never published")
		}
		incModels := inc.models(t, testApp)

		// One-shot reference over the identical file set.
		ref := startServer(t, serve.Config{})
		ref.mustUpload(t, testApp, contentsOf(files))
		ref.settle(t, testApp)
		refModels := ref.models(t, testApp)

		if !bytes.Equal(incModels, refModels) {
			return fmt.Errorf("incremental final models differ from one-shot upload")
		}
		return nil
	})
}

// TestPropServeConcurrentClients: N clients uploading disjoint slices of
// one campaign concurrently, with readers hammering the query surface
// throughout, never lose an update and never observe a torn snapshot.
// Run under -race by verify.sh.
func TestPropServeConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("full fit campaigns are too slow for -short")
	}
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 2}, genPartition(), func(p partition) error {
		files := makeCampaign(t, p.Shape.Ranks, p.Shape.Reps, p.Shape.Seed)
		batches := splitContents(files, p.Order, p.Batches)

		s := startServer(t, serve.Config{MaxCampaigns: 2})
		var writers sync.WaitGroup
		errs := make([]error, len(batches))
		for i, batch := range batches {
			writers.Add(1)
			//edlint:ignore ctxflow test client completes one bounded upload; writers.Wait below joins it
			go func(i int, batch []string) {
				defer writers.Done()
				status, body := s.upload(t, testApp, "json", batch)
				if status != http.StatusAccepted {
					errs[i] = fmt.Errorf("client %d refused: %d %s", i, status, body)
				}
			}(i, batch)
		}
		// Reader: every 200 response from /models must be a complete,
		// well-formed model file — a torn snapshot would fail to decode
		// or carry an invalid version. Raw HTTP only: t.Fatal is not
		// legal off the test goroutine.
		stop := make(chan struct{})
		readerDone := make(chan error, 1)
		//edlint:ignore ctxflow reader loop polls the stop channel each pass; close(stop)+<-readerDone below join it
		go func() {
			defer close(readerDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := s.ts.Client().Get(s.ts.URL + "/v1/apps/" + testApp + "/models")
				if err != nil {
					//edlint:ignore sendguard readerDone is buffered to 1 and each path sends at most once before returning
					readerDone <- fmt.Errorf("reader: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil {
					//edlint:ignore sendguard readerDone is buffered to 1 and each path sends at most once before returning
					readerDone <- fmt.Errorf("reader: %v", err)
					return
				}
				if resp.StatusCode == http.StatusOK {
					var mf struct {
						Version int `json:"version"`
					}
					if err := json.Unmarshal(body, &mf); err != nil || mf.Version != 1 {
						//edlint:ignore sendguard readerDone is buffered to 1 and each path sends at most once before returning
						readerDone <- fmt.Errorf("torn /models response (version=%d, err=%v)", mf.Version, err)
						return
					}
				}
			}
		}()

		writers.Wait()
		close(stop)
		if err := <-readerDone; err != nil {
			return err
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}

		// No lost updates: the settled state covers every upload — its
		// models equal the one-shot reference over the full file set.
		snap := s.settle(t, testApp)
		if snap.Profiles != len(files) {
			return fmt.Errorf("settled snapshot covers %d profiles, want %d (lost update)", snap.Profiles, len(files))
		}
		got := s.models(t, testApp)
		want := batchModels(t, s.spool+"/"+testApp, 1)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("concurrent-upload final models differ from batch reference")
		}
		return nil
	})
}
