package ingest_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"extradeep/internal/aggregate"
	"extradeep/internal/calltree"
	"extradeep/internal/importer"
	"extradeep/internal/ingest"
	"extradeep/internal/profile"
	"extradeep/internal/propcheck"
	"extradeep/internal/propcheck/edgen"
	"extradeep/internal/trace"
)

// summaryOptionSets are the option sets the summarized-profile property
// runs under: 0–2 skipped warm-up epochs, median and mean.
var summaryOptionSets = func() []aggregate.Options {
	var out []aggregate.Options
	for skip := 0; skip <= 2; skip++ {
		for _, mean := range []bool{false, true} {
			out = append(out, aggregate.Options{SkipWarmupEpochs: skip, UseMean: mean})
		}
	}
	return out
}()

// roughen adds to an edgen trace what its generator never draws: kernels
// whose kind switches between compute and memory kinds from event to
// event, asynchronous events between steps (counted toward the next),
// and events after the last step (outside the profiled window).
func roughen(r *propcheck.Rand, tr *trace.Trace) {
	for i := range tr.Events {
		if r.Intn(4) == 0 {
			e := &tr.Events[i]
			if calltree.CategoryOf(e.Kind) == calltree.CategoryMemory {
				e.Kind, e.Bytes = calltree.KindCUDA, 0
			} else {
				e.Kind, e.Bytes = calltree.KindMemcpy, float64(r.IntRange(0, 1<<16))
			}
		}
	}
	if len(tr.Steps) == 0 {
		return
	}
	for _, s := range tr.Steps {
		if r.Intn(3) == 0 {
			tr.Events = append(tr.Events, trace.Event{
				Name: "async", Kind: calltree.KindMemcpy, Callpath: "App->async",
				Start: s.End, Duration: r.Float64Range(0, 0.001), Bytes: 512, Count: r.IntRange(0, 3),
			})
		}
	}
	last := tr.Steps[len(tr.Steps)-1]
	tr.Events = append(tr.Events, trace.Event{Name: "late", Kind: calltree.KindCUDA, Start: last.End + 1, Duration: 0.5})
	tr.Sort()
}

// aggregateDump renders every field of an aggregate, floats in their
// shortest round-tripping form, so equal dumps mean bit-identical
// aggregates.
func aggregateDump(a *aggregate.ConfigAggregate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v %v reps=%d train=%d\n", a.App, a.Params, a.Point, a.Reps, a.TrainSteps)
	for _, k := range a.SortedKernels() {
		fmt.Fprintf(&b, "%q %q %v perRep=%v value=%v\n", k.Callpath, k.Name, k.Kind, k.PerRep, k.Value)
	}
	fmt.Fprintf(&b, "categories=%v perRep=%v\n", a.Categories, a.CategoriesPerRep)
	return b.String()
}

// TestPropSummarizedProfilesAggregateIdentically: aggregating documents
// summarized as they are decoded (SummarizeBytes, JSON and CSV) gives,
// float bit for float bit, what aggregating the same documents fully
// decoded (DecodeBytes) gives, under every option set. A summarized
// profile keeps no events, and its summary records the options it was
// built under.
func TestPropSummarizedProfilesAggregateIdentically(t *testing.T) {
	set := edgen.ProfileSet(edgen.SetShape{MaxConfigs: 3, MaxRanks: 3, MaxReps: 3})
	gen := propcheck.Gen[[]*profile.Profile]{
		Generate: func(r *propcheck.Rand) []*profile.Profile {
			ps := set.Generate(r)
			for _, p := range ps {
				if r.Bool() {
					roughen(r, &p.Trace)
				}
			}
			return ps
		},
		Describe: set.Describe,
	}
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 60}, gen, func(ps []*profile.Profile) error {
		for _, format := range []string{"json", "csv"} {
			docs := make([][]byte, len(ps))
			full := make([]*profile.Profile, len(ps))
			for i, p := range ps {
				var err error
				if format == "json" {
					docs[i], err = json.Marshal(p)
				} else {
					var b bytes.Buffer
					err = importer.WriteCSV(&b, p)
					docs[i] = b.Bytes()
				}
				if err != nil {
					return fmt.Errorf("%s: encoding %s: %w", format, p.FileName(), err)
				}
				if full[i], _, err = ingest.DecodeBytes(docs[i], format); err != nil {
					return fmt.Errorf("%s: decoding %s: %w", format, p.FileName(), err)
				}
			}
			for _, opts := range summaryOptionSets {
				summarized := make([]*profile.Profile, len(docs))
				for i, doc := range docs {
					p, _, err := ingest.SummarizeBytes(doc, format, opts)
					if err != nil {
						return fmt.Errorf("%s %+v: summarizing %s: %w", format, opts, ps[i].FileName(), err)
					}
					tr := p.Trace
					if p.Summary == nil || p.Summary.Options != opts || len(tr.Events)+len(tr.Steps)+len(tr.Epochs) > 0 || tr.Rank != full[i].Trace.Rank {
						return fmt.Errorf("%s %+v: %s: summary %+v, trace %+v; want a summary under the options and an empty trace",
							format, opts, p.FileName(), p.Summary, tr)
					}
					summarized[i] = p
				}
				wantGroups, gotGroups := profile.GroupByConfig(full), profile.GroupByConfig(summarized)
				for _, key := range profile.SortedKeys(wantGroups) {
					want, err := aggregate.Aggregate(wantGroups[key], opts)
					if err != nil {
						return fmt.Errorf("%s %+v: full decode: %w", format, opts, err)
					}
					got, err := aggregate.Aggregate(gotGroups[key], opts)
					if err != nil {
						return fmt.Errorf("%s %+v: summarized: %w", format, opts, err)
					}
					if w, g := aggregateDump(want), aggregateDump(got); w != g {
						return fmt.Errorf("%s %+v %s:\nsummarized %s\nfull       %s", format, opts, key.Point, g, w)
					}
				}
			}
		}
		return nil
	})
}
