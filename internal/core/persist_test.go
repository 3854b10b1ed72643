package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"extradeep/internal/epoch"
	"extradeep/internal/measurement"
)

func TestSaveLoadModelsRoundTrip(t *testing.T) {
	res, err := RunCampaign(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "models.json")
	if err := SaveModels(path, res.Models); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(path)
	if err != nil {
		t.Fatal(err)
	}
	// Application models predict identically after the round trip.
	for p, orig := range res.Models.App {
		got := loaded.App[p]
		if got == nil {
			t.Fatalf("app model %q lost", p)
		}
		for _, x := range []float64{2, 10, 64, 128} {
			a, b := orig.Predict(x), got.Predict(x)
			if math.Abs(a-b) > 1e-12*(1+math.Abs(a)) {
				t.Fatalf("%q at %v: %v vs %v", p, x, a, b)
			}
		}
		if got.SMAPE != orig.SMAPE || got.R2 != orig.R2 {
			t.Errorf("%q: quality stats lost", p)
		}
	}
	// Kernel model counts survive.
	if loaded.KernelCount() != res.Models.KernelCount() {
		t.Errorf("kernel models: %d vs %d", loaded.KernelCount(), res.Models.KernelCount())
	}
	// Confidence intervals still work (need Points + RelResidualStd).
	app := loaded.App[epoch.AppPath]
	lo, hi := app.PredictInterval(0.95, 64)
	olo, ohi := res.Models.App[epoch.AppPath].PredictInterval(0.95, 64)
	if math.Abs(lo-olo) > 1e-9 || math.Abs(hi-ohi) > 1e-9 {
		t.Errorf("CI changed: [%v,%v] vs [%v,%v]", lo, hi, olo, ohi)
	}
}

func TestSaveModelsNil(t *testing.T) {
	if err := SaveModels(filepath.Join(t.TempDir(), "m.json"), nil); err == nil {
		t.Error("nil model set accepted")
	}
}

func TestLoadModelsMissingFile(t *testing.T) {
	if _, err := LoadModels(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadModelsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModels(path); err == nil {
		t.Error("corrupt file accepted")
	}
}

func TestLoadModelsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v99.json")
	if err := os.WriteFile(path, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModels(path); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestLoadModelsMissingFunction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nofn.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"app":{"App":{}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModels(path); err == nil {
		t.Error("model without function accepted")
	}
}

func TestSavedModelJSONShape(t *testing.T) {
	// The multi-parameter grid model also round-trips (factors carry
	// parameter indices).
	res, err := RunGridCampaign(testGridCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := SaveModels(path, res.Models); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Models.App[epoch.AppPath]
	got := loaded.App[epoch.AppPath]
	pt := measurement.Point{16, 128}
	if math.Abs(orig.Function.EvalAt(pt)-got.Function.EvalAt(pt)) > 1e-12 {
		t.Error("grid model changed by round trip")
	}
}
