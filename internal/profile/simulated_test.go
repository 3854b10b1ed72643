package profile_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"extradeep/internal/profile"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// TestDecodeFastPathTakesSimulatorProfiles pins that what the product
// writes never needs the fallback, for every benchmark the simulator
// knows: a regression there would keep every output byte-identical while
// decoding every file at json.Unmarshal's speed. The fast path is not
// visible from this package, which must be external to import the
// simulator, so the test tells the paths apart by allocations: a
// fallback runs json.Unmarshal in full after the fast path gives up, so
// it never allocates less than json.Unmarshal alone.
func TestDecodeFastPathTakesSimulatorProfiles(t *testing.T) {
	benchmarks, err := engine.Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benchmarks {
		t.Run(b.Name, func(t *testing.T) {
			data := simulatedDocs(t, b.Name, []int{2}, 1, 1)[0]
			if !bytes.Contains(data, []byte(`\u003e`)) {
				t.Fatal("simulated profile has no escaped callpath")
			}
			checkParity(t, data)
			fast := testing.AllocsPerRun(2, func() { _, _ = profile.Decode(data) })
			slow := testing.AllocsPerRun(2, func() {
				var p profile.Profile
				_ = json.Unmarshal(data, &p)
			})
			if fast >= slow {
				t.Errorf("Decode made %v allocations, json.Unmarshal %v: the fast path refused a marshalled simulator profile", fast, slow)
			}
		})
	}
}

// simulatedDocs marshals the profiles of a sampled, weak-scaling,
// data-parallel campaign on the DEEP system, as edprofile writes them.
func simulatedDocs(tb testing.TB, name string, ranks []int, reps, sampleRanks int) [][]byte {
	tb.Helper()
	b, err := engine.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	var docs [][]byte
	for _, r := range ranks {
		cfg := engine.RunConfig{
			System: hardware.DEEP(), Strategy: parallel.DataParallel{},
			Ranks: r, WeakScaling: true, Seed: 1, SampleRanks: sampleRanks,
		}
		for rep := 1; rep <= reps; rep++ {
			ps, err := engine.Profile(b, cfg, rep, true)
			if err != nil {
				tb.Fatal(err)
			}
			for _, p := range ps {
				data, err := json.Marshal(p)
				if err != nil {
					tb.Fatal(err)
				}
				docs = append(docs, data)
			}
		}
	}
	return docs
}

var decodeSink *profile.Profile

// BenchmarkDecode decodes the 54-document cifar10 campaign that
// `edprofile -reps 3` writes, with json.Unmarshal and with Decode.
func BenchmarkDecode(b *testing.B) {
	docs := simulatedDocs(b, "cifar10", []int{2, 4, 6, 8, 10}, 3, 4)
	var size int64
	for _, d := range docs {
		size += int64(len(d))
	}
	decoders := []struct {
		name   string
		decode func([]byte) (*profile.Profile, error)
	}{
		{"json", func(data []byte) (*profile.Profile, error) {
			var p profile.Profile
			return &p, json.Unmarshal(data, &p)
		}},
		{"fast", profile.Decode},
	}
	for _, dec := range decoders {
		b.Run(dec.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range docs {
					p, err := dec.decode(d)
					if err != nil {
						b.Fatal(err)
					}
					decodeSink = p
				}
			}
		})
	}
}
