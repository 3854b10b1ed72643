package profile

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"extradeep/internal/faults"
)

// nonFinite reports whether any numeric field of the profile is NaN/Inf.
func nonFinite(p *Profile) bool {
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

// FuzzProfileRead asserts the loader invariant on arbitrary file bytes:
// Read returns either a valid, all-finite profile or an error — it never
// panics and never smuggles NaN/Inf into the pipeline.
func FuzzProfileRead(f *testing.F) {
	valid, err := json.Marshal(validProfile(0, 1, 4))
	if err != nil {
		f.Fatal(err)
	}
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

	// One scratch file per worker process: os.WriteFile truncates, so
	// reusing the path is safe and keeps the fuzz loop I/O-light.
	path := filepath.Join(f.TempDir(), "fuzz.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Read(path)
		if err != nil {
			return // rejected input: the other half of the invariant
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("Read accepted an invalid profile: %v", verr)
		}
		if nonFinite(p) {
			t.Fatalf("Read smuggled a non-finite value: %+v", p)
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
		app, config, rank, rep, ok := ParseFileName(name)
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
		canonical := FileName(app, config, rank, rep)
		app2, config2, rank2, rep2, ok2 := ParseFileName(canonical)
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
