package pipeline

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"extradeep/internal/aggregate"
	"extradeep/internal/faults"
	"extradeep/internal/importer"
	"extradeep/internal/ingest"
	"extradeep/internal/profile"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// writeDamagedCampaign simulates a 6-configuration × 3-repetition
// campaign in the given format and damages it with every internal/faults
// kind plus duplicate identities: every repetition of x12 is lost (a
// "configuration lost" warning), five more files carry one corruption
// kind each, DuplicateRankRep writes a colliding copy that sorts after
// its original, and a second copy sorts before its original, so the
// canonical file is the one quarantined. The survivors stay modelable.
func writeDamagedCampaign(t *testing.T, format string) string {
	t.Helper()
	b, err := engine.ByName("imdb")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store := &profile.Store{Dir: dir}
	for _, ranks := range []int{2, 4, 6, 8, 10, 12} {
		cfg := engine.RunConfig{
			System: hardware.DEEP(), Strategy: parallel.DataParallel{},
			Ranks: ranks, WeakScaling: true, Seed: 11, SampleRanks: 1,
		}
		for rep := 1; rep <= 3; rep++ {
			ps, err := engine.Profile(b, cfg, rep, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ps {
				if format == "json" {
					if err := store.Write(p); err != nil {
						t.Fatal(err)
					}
					continue
				}
				var buf bytes.Buffer
				if err := importer.WriteCSV(&buf, p); err != nil {
					t.Fatal(err)
				}
				name := strings.TrimSuffix(p.FileName(), ".json") + ".csv"
				if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	victim := func(ranks, rep int) string {
		matches, err := filepath.Glob(filepath.Join(dir, "imdb.x"+strconv.Itoa(ranks)+".mpi*.r"+strconv.Itoa(rep)+"."+format))
		if err != nil || len(matches) != 1 {
			t.Fatalf("victim x%d r%d: %v %v", ranks, rep, matches, err)
		}
		return matches[0]
	}
	damage := []struct {
		ranks, rep int
		kind       faults.Kind
	}{
		{12, 1, faults.Truncate}, {12, 2, faults.Garbage}, {12, 3, faults.Empty},
		{2, 1, faults.InvalidUTF8}, {4, 2, faults.NaNMetric}, {6, 3, faults.InfMetric},
		{8, 1, faults.NegativeDuration}, {10, 2, faults.MissingHeader},
		{10, 3, faults.DuplicateRankRep},
	}
	for _, d := range damage {
		if _, err := faults.CorruptFile(victim(d.ranks, d.rep), d.kind); err != nil {
			t.Fatal(err)
		}
	}
	orig := victim(6, 1)
	data, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a-dup-"+filepath.Base(orig)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// quarantineText flattens quarantine entries to comparable triples; the
// errors are compared by text, as an operator sees them.
func quarantineText(qs []ingest.Quarantined) [][3]string {
	out := make([][3]string, len(qs))
	for i, q := range qs {
		out[i] = [3]string{q.Path, q.Stage.String(), q.Err.Error()}
	}
	return out
}

// TestIngestReportIndependentOfWorkers pins the parallel ingest's
// determinism contract: over a campaign damaged with every fault kind
// and duplicate identities, the report — profiles, quarantine entries
// with their stage and error text, gate warnings — is the same for every
// worker count and equal to the sequential ingest.LoadDir (its profiles
// summarized, or as they are for IngestTraces), and under
// Strict every worker count aborts with the same first-in-name-order
// error.
func TestIngestReportIndependentOfWorkers(t *testing.T) {
	for _, format := range []string{"json", "csv"} {
		t.Run(format, func(t *testing.T) {
			dir := writeDamagedCampaign(t, format)
			lenient := ingest.Options{Policy: ingest.Lenient}
			want, err := ingest.LoadDir(dir, format, lenient)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.Gate(lenient); err != nil {
				t.Fatalf("damaged campaign should stay modelable: %v", err)
			}
			if len(want.Quarantined) != 10 || len(want.Warnings) == 0 {
				t.Fatalf("fixture: %d quarantined, %d warnings; want 10 and some", len(want.Quarantined), len(want.Warnings))
			}
			strict := ingest.Options{Policy: ingest.Strict}
			_, wantStrict := ingest.LoadDir(dir, format, strict)
			if wantStrict == nil {
				t.Fatal("strict LoadDir accepted a damaged campaign")
			}

			// Ingest summarizes every profile under the pipeline's
			// aggregation options as it loads it.
			var dec profile.Decoder
			summarized := make([]*profile.Profile, len(want.Profiles))
			for i, p := range want.Profiles {
				c := *p
				dec.Summarize(&c, aggregate.DefaultOptions())
				summarized[i] = &c
			}

			for _, workers := range []int{1, 4, 4, 4} {
				p := New(Config{Workers: workers})
				got, err := p.Ingest(context.Background(), dir, format, lenient)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if err := got.Gate(lenient); err != nil {
					t.Fatalf("workers=%d: gate: %v", workers, err)
				}
				if !reflect.DeepEqual(got.Profiles, summarized) {
					t.Errorf("workers=%d: profiles differ from the sequential load, summarized", workers)
				}
				traces, err := p.IngestTraces(context.Background(), dir, format, lenient)
				if err != nil {
					t.Fatalf("workers=%d: IngestTraces: %v", workers, err)
				}
				if !reflect.DeepEqual(traces.Profiles, want.Profiles) {
					t.Errorf("workers=%d: IngestTraces profiles differ from the sequential load", workers)
				}
				if g, w := quarantineText(got.Quarantined), quarantineText(want.Quarantined); !reflect.DeepEqual(g, w) {
					t.Errorf("workers=%d: quarantine\n got %q\nwant %q", workers, g, w)
				}
				if !reflect.DeepEqual(got.Warnings, want.Warnings) {
					t.Errorf("workers=%d: warnings\n got %q\nwant %q", workers, got.Warnings, want.Warnings)
				}

				_, err = p.Ingest(context.Background(), dir, format, strict)
				if err == nil || err.Error() != wantStrict.Error() {
					t.Errorf("workers=%d: strict error %v, want %v", workers, err, wantStrict)
				}
			}
		})
	}
}
