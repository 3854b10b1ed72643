package serve_test

// BenchmarkServe measures the query hot path — /predict against a
// settled snapshot — under 1, 4 and 16 concurrent clients, all on a
// fixed campaign seed. Beyond the usual ns/op, each variant reports
// req/s and p99 latency, and (with EDSERVE_BENCH_OUT set, as the
// verify.sh serve-bench stage does) appends them to a machine-readable
// results file, the live counterpart of the committed BENCH_serve.json
// trajectory.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"extradeep/internal/serve"
)

// benchResult is one variant's measured outcome.
type benchResult struct {
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests"`
	ReqPerSec float64 `json:"req_per_s"`
	P99Ns     int64   `json:"p99_ns"`
	NsPerOp   int64   `json:"ns_per_op"`
}

// benchFile is the EDSERVE_BENCH_OUT schema.
type benchFile struct {
	Benchmark   string                 `json:"benchmark"`
	Description string                 `json:"description"`
	Command     string                 `json:"command"`
	Environment map[string]any         `json:"environment"`
	Date        string                 `json:"date"`
	Results     map[string]benchResult `json:"results"`
}

var (
	benchMu      sync.Mutex
	benchResults = map[string]benchResult{}
)

// recordBench appends one variant to the output file (rewritten whole on
// every variant, so a partial run still leaves valid JSON).
func recordBench(b *testing.B, name string, res benchResult) {
	out := os.Getenv("EDSERVE_BENCH_OUT")
	if out == "" {
		return
	}
	benchMu.Lock()
	defer benchMu.Unlock()
	benchResults[name] = res
	f := benchFile{
		Benchmark:   "BenchmarkServe",
		Description: "edserve query hot path: GET /v1/apps/{app}/predict against a settled snapshot (imdb campaign, 5 ranks x 1 rep, seed 1), under 1/4/16 concurrent clients over a shared httptest transport.",
		Command:     "EDSERVE_BENCH_OUT=BENCH_serve.json go test -run '^$' -bench BenchmarkServe ./internal/serve/",
		Environment: map[string]any{
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"cores":  runtime.NumCPU(),
		},
		Date:    time.Now().UTC().Format("2006-01-02"),
		Results: benchResults,
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkServe(b *testing.B) {
	files := makeCampaign(b, defaultRanks, 1, 1)
	s := startServer(b, serve.Config{})
	s.mustUpload(b, testApp, contentsOf(files))
	s.settle(b, testApp)
	url := s.ts.URL + "/v1/apps/" + testApp + "/predict?x=8"
	client := s.ts.Client()

	for _, clients := range []int{1, 4, 16} {
		name := fmt.Sprintf("clients=%d", clients)
		b.Run(name, func(b *testing.B) {
			latencies := make([][]time.Duration, clients)
			var work sync.WaitGroup
			requests := make(chan struct{})
			failures := make(chan error, clients)
			for c := 0; c < clients; c++ {
				work.Add(1)
				go func(c int) {
					defer work.Done()
					for range requests {
						t0 := time.Now()
						resp, err := client.Get(url)
						if err != nil {
							select {
							case failures <- err:
							default:
							}
							return
						}
						_ = resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							select {
							case failures <- fmt.Errorf("predict: status %d", resp.StatusCode):
							default:
							}
							return
						}
						latencies[c] = append(latencies[c], time.Since(t0))
					}
				}(c)
			}

			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				// Guard the send: a client that errored has stopped
				// receiving, and an unguarded send would hang forever.
				select {
				case requests <- struct{}{}:
				case err := <-failures:
					b.Fatal(err)
				}
			}
			close(requests)
			work.Wait()
			elapsed := time.Since(start)
			b.StopTimer()

			select {
			case err := <-failures:
				b.Fatal(err)
			default:
			}

			var all []time.Duration
			for _, ls := range latencies {
				all = append(all, ls...)
			}
			if len(all) != b.N {
				b.Fatalf("completed %d requests, want %d", len(all), b.N)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			p99 := all[(len(all)-1)*99/100]
			rps := float64(b.N) / elapsed.Seconds()
			b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
			b.ReportMetric(rps, "req/s")
			recordBench(b, name, benchResult{
				Clients:   clients,
				Requests:  b.N,
				ReqPerSec: rps,
				P99Ns:     p99.Nanoseconds(),
				NsPerOp:   elapsed.Nanoseconds() / int64(b.N),
			})
		})
	}
}
