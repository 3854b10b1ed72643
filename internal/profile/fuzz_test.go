package profile_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"extradeep/internal/faults"
	"extradeep/internal/ingest"
	"extradeep/internal/profile"
	"extradeep/internal/trace"
)

// floats lists every float field of p in a fixed order.
func floats(p *profile.Profile) []float64 {
	out := append([]float64{p.WallTime}, p.Config...)
	for _, e := range p.Trace.Events {
		out = append(out, e.Start, e.Duration, e.Bytes)
	}
	for _, s := range p.Trace.Steps {
		out = append(out, s.Start, s.End)
	}
	for _, ep := range p.Trace.Epochs {
		out = append(out, ep.Start, ep.End)
	}
	return out
}

// nonFinite reports whether any numeric field of the profile is NaN/Inf.
func nonFinite(p *profile.Profile) bool {
	return slices.ContainsFunc(floats(p), func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) })
}

// checkParity fails t unless Decode gives what json.Unmarshal gives for
// data: a deep-equal profile whose floats match bit for bit, or the
// identical error text. It returns Decode's profile, nil on error.
func checkParity(t *testing.T, data []byte) *profile.Profile {
	t.Helper()
	got, err := profile.Decode(data)
	var want profile.Profile
	wantErr := json.Unmarshal(data, &want)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("Decode error %v, json.Unmarshal error %v", err, wantErr)
		}
		return nil
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !reflect.DeepEqual(*got, want) || !slices.EqualFunc(floats(got), floats(&want), sameBits) {
		t.Fatalf("Decode = %+v\njson.Unmarshal = %+v", *got, want)
	}
	return got
}

// checkSummaryParity fails t unless loading data summarized
// (ingest.SummarizeBytes) accepts it exactly when the full load —
// Decode, then Validate — does, and refuses it with the same stage and
// error text. An accepted document comes back with a summary under the
// options and no events.
func checkSummaryParity(t *testing.T, data []byte) {
	t.Helper()
	_, stage, err := ingest.DecodeBytes(data, "json")
	opts := trace.SummaryOptions{SkipWarmupEpochs: len(data) % 3, UseMean: len(data)%2 == 1}
	p, sstage, serr := ingest.SummarizeBytes(data, "json", opts)
	if (err == nil) != (serr == nil) || (err != nil && (stage != sstage || err.Error() != serr.Error())) {
		t.Fatalf("summarizing load: stage %v error %v; full load: stage %v error %v", sstage, serr, stage, err)
	}
	if serr == nil && (p.Summary == nil || p.Summary.Options != opts || len(p.Trace.Events)+len(p.Trace.Steps)+len(p.Trace.Epochs) > 0) {
		t.Fatalf("summarizing load: summary %+v, trace %+v; want a summary under %+v and no events", p.Summary, p.Trace, opts)
	}
}

// FuzzProfileRead asserts the decoder contract on arbitrary file bytes:
// Decode gives exactly json.Unmarshal's profile or error, and a decoded
// profile that passes Validate is all-finite — it never panics and never
// smuggles NaN/Inf into the pipeline. The decoded profile shares no
// memory with the input bytes. The summarizing load accepts and refuses
// exactly what Decode plus Validate do (checkSummaryParity).
func FuzzProfileRead(f *testing.F) {
	// A small valid profile as json.Marshal writes it.
	valid := []byte(`{"app":"cifar10","params":["p"],"config":[4],"rank":0,"rep":1,"wall_time":12.5,"sampled":true,"trace":{"rank":0,"events":[{"name":"EigenMetaKernel","kind":1,"start":0.01,"duration":0.05}],"steps":[{"epoch":0,"index":0,"phase":0,"start":0,"end":0.1}],"epochs":[{"index":0,"start":0,"end":0.1}]}}`)
	f.Add(valid)
	for _, k := range faults.Kinds() {
		mutated, err := faults.Apply(k, valid, "json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(mutated)
	}
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"app":"x","params":["p"],"config":[1e308],"rank":0,"rep":1}`))
	f.Add([]byte(`{"app":"x","rep":1,"trace":{"steps":[{"start":5,"end":1}]}}`))
	// A marshalled simulator profile: every callpath escapes '>'. The
	// documents that probe the fast path's edges are the fallback-* and
	// fast-* seeds under testdata.
	f.Add(simulatedDocs(f, "cifar10", []int{2}, 1, 1)[0])

	f.Fuzz(func(t *testing.T, data []byte) {
		checkSummaryParity(t, data)
		p := checkParity(t, data)
		if p == nil {
			return
		}
		// Decode retains nothing of its input: ingest decodes from pooled
		// read buffers that the next file overwrites.
		buf := bytes.Clone(data)
		q, err := profile.Decode(buf)
		if err != nil {
			t.Fatalf("second decode: %v", err)
		}
		for i := range buf {
			buf[i] = '#'
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("overwriting the input changed the decoded profile: %+v, want %+v", *q, *p)
		}
		if p.Validate() != nil {
			return // rejected input: the other half of the invariant
		}
		if nonFinite(p) {
			t.Fatalf("Decode smuggled a non-finite value: %+v", p)
		}
	})
}

// FuzzParseFileName asserts the naming-convention invariant on arbitrary
// strings: ParseFileName never panics, only accepts names whose parts are
// well-formed (non-empty app, rank ≥ 0, rep ≥ 1, finite configuration
// values), and every accepted name round-trips — rebuilding the canonical
// name from the parsed parts and parsing again yields identical parts.
func FuzzParseFileName(f *testing.F) {
	f.Add("cifar10.x4.mpi0.r1.json")
	f.Add("imdb.x0.5.mpi10.r5.csv")
	f.Add("app.v2.x1_2_3.mpi127.r99")
	f.Add("resnet.x1e-20_1024.mpi3.r2.json")
	f.Add("noconfig.mpi0.r1.json")
	f.Add("app.x.mpi0.r1")
	f.Add("app.xNaN.mpi0.r1")
	f.Add("app.x1e999.mpi0.r1")
	f.Add("app.x1.mpi-1.r1")
	f.Add("app.x1.mpi0.r0")
	f.Add(".x1.mpi0.r1")
	f.Add("")
	f.Fuzz(func(t *testing.T, name string) {
		app, config, rank, rep, ok := profile.ParseFileName(name)
		if !ok {
			return // rejected input: the other half of the invariant
		}
		if app == "" || rank < 0 || rep < 1 {
			t.Fatalf("accepted %q with malformed parts: app=%q rank=%d rep=%d", name, app, rank, rep)
		}
		for _, v := range config {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted %q with non-finite config %v", name, config)
			}
		}
		canonical := profile.FileName(app, config, rank, rep)
		app2, config2, rank2, rep2, ok2 := profile.ParseFileName(canonical)
		if !ok2 {
			t.Fatalf("canonical name %q rebuilt from accepted %q does not re-parse", canonical, name)
		}
		if app2 != app || rank2 != rank || rep2 != rep || len(config2) != len(config) {
			t.Fatalf("round-trip through %q changed parts: app %q→%q rank %d→%d rep %d→%d config %v→%v",
				canonical, app, app2, rank, rank2, rep, rep2, config, config2)
		}
		for i := range config {
			if config2[i] != config[i] {
				t.Fatalf("round-trip through %q changed config[%d]: %v → %v", canonical, i, config[i], config2[i])
			}
		}
	})
}
