package importer_test

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extradeep/internal/faults"
	"extradeep/internal/importer"
	"extradeep/internal/ingest"
	"extradeep/internal/profile"
	"extradeep/internal/trace"
)

// nonFiniteProfile reports whether any numeric field is NaN/Inf.
func nonFiniteProfile(p *profile.Profile) bool {
	bad := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		return false
	}
	if bad(p.WallTime) || bad(p.Config...) {
		return true
	}
	for _, e := range p.Trace.Events {
		if bad(e.Start, e.Duration, e.Bytes) {
			return true
		}
	}
	for _, s := range p.Trace.Steps {
		if bad(s.Start, s.End) {
			return true
		}
	}
	for _, ep := range p.Trace.Epochs {
		if bad(ep.Start, ep.End) {
			return true
		}
	}
	return false
}

// FuzzReadCSV asserts the interchange-format invariant on arbitrary
// input: ReadCSV returns either a valid, all-finite profile or an error —
// it never panics and never smuggles NaN/Inf into the pipeline, no matter
// how a foreign converter mangled its export. Loading the input
// summarized (ingest.SummarizeBytes) accepts it exactly when the full
// load does, and refuses it with the same stage and error.
func FuzzReadCSV(f *testing.F) {
	sample, err := os.ReadFile(filepath.Join("testdata", "sample.csv"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	for _, k := range faults.Kinds() {
		mutated, err := faults.Apply(k, sample, "csv")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(mutated)
	}
	f.Add([]byte("# extradeep-csv v1\n# config=NaN\n"))
	f.Add([]byte("# extradeep-csv v1\n# wall=Inf\nevent,x,cuda,cp,0,1,,\n"))
	f.Add([]byte("# extradeep-csv v1\nevent,x,cuda,cp,NaN,1,,\n"))
	f.Add([]byte("# extradeep-csv v1\nstep,0,0,train,Inf,NaN\n"))
	f.Add([]byte("# extradeep-csv v1\nevent,x,cuda,cp,0,1,-5,-3\n"))
	f.Add([]byte("\"quoted\nmultiline\",oops"))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, stage, err := ingest.DecodeBytes(data, "csv")
		opts := trace.SummaryOptions{SkipWarmupEpochs: len(data) % 3, UseMean: len(data)%2 == 1}
		sp, sstage, serr := ingest.SummarizeBytes(data, "csv", opts)
		if (err == nil) != (serr == nil) || (err != nil && (stage != sstage || err.Error() != serr.Error())) {
			t.Fatalf("summarizing load: stage %v error %v; full load: stage %v error %v", sstage, serr, stage, err)
		}
		if serr == nil && (sp.Summary == nil || len(sp.Trace.Events) > 0) {
			t.Fatalf("summarizing load kept events or no summary: %+v", sp)
		}

		p, err := importer.ReadCSV(strings.NewReader(string(data)))
		if err != nil {
			return // rejected input: the other half of the invariant
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("ReadCSV accepted an invalid profile: %v", verr)
		}
		if nonFiniteProfile(p) {
			t.Fatalf("ReadCSV smuggled a non-finite value: %+v", p)
		}
	})
}
