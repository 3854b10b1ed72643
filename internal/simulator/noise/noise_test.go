package noise

import (
	"math"
	"testing"

	"extradeep/internal/mathutil"
)

func TestRunSigmaGrowsWithNodes(t *testing.T) {
	p := DEEPParams()
	prev := -1.0
	for _, nodes := range []int{1, 2, 4, 16, 64} {
		s := p.RunSigma(nodes)
		if s <= prev {
			t.Errorf("sigma(%d) = %v not increasing", nodes, s)
		}
		prev = s
	}
}

func TestRunSigmaClampNonPositiveNodes(t *testing.T) {
	p := DEEPParams()
	if !mathutil.Close(p.RunSigma(0), p.RunSigma(1)) {
		t.Error("nodes=0 not clamped to 1")
	}
}

func TestCalibrationMatchesPaperScale(t *testing.T) {
	// The paper reports ≈12.6% average run-to-run variation on DEEP and
	// ≈17.4% on JURECA at the evaluated scales (up to 64 nodes). The
	// log-scale sigma at mid-scale (≈16–64 nodes) should be in that
	// region.
	d := DEEPParams().RunSigma(32)
	if d < 0.06 || d > 0.2 {
		t.Errorf("DEEP sigma(32) = %v, want ≈0.09", d)
	}
	j := JURECAParams().RunSigma(16)
	if j <= DEEPParams().RunSigma(16) {
		t.Error("JURECA should be noisier than DEEP")
	}
}

func TestSourceDeterministic(t *testing.T) {
	a := NewSource(DEEPParams(), 8, 42)
	b := NewSource(DEEPParams(), 8, 42)
	if a.RunFactorCompute() != b.RunFactorCompute() || a.RunFactorComm() != b.RunFactorComm() {
		t.Error("run factors differ for identical seeds")
	}
	for i := 0; i < 10; i++ {
		if a.StepFactor() != b.StepFactor() {
			t.Fatal("step factors diverge")
		}
		if a.KernelFactor() != b.KernelFactor() {
			t.Fatal("kernel factors diverge")
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a := NewSource(DEEPParams(), 8, 1)
	b := NewSource(DEEPParams(), 8, 2)
	if a.RunFactorCompute() == b.RunFactorCompute() {
		t.Error("different seeds produced identical run factors")
	}
}

func TestFactorsPositive(t *testing.T) {
	s := NewSource(JURECAParams(), 64, 7)
	for i := 0; i < 1000; i++ {
		for _, f := range []float64{s.StepFactor(), s.KernelFactor(), s.CommFactor(), s.ComputeFactor()} {
			if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatalf("non-positive/invalid factor %v", f)
			}
		}
	}
}

func TestFactorsCenteredNearOne(t *testing.T) {
	// The log-normal median is 1; the sample geometric mean over many
	// draws should be close to 1.
	s := NewSource(DEEPParams(), 4, 3)
	var logSum float64
	const n = 20000
	for i := 0; i < n; i++ {
		logSum += math.Log(s.StepFactor())
	}
	if gm := math.Exp(logSum / n); gm < 0.99 || gm > 1.01 {
		t.Errorf("geometric mean = %v, want ≈1", gm)
	}
}

func TestRunSpreadGrowsWithScale(t *testing.T) {
	// Sample run factors at small and large scale; the spread (std of
	// logs) must grow.
	spread := func(nodes int) float64 {
		var sum, sum2 float64
		const n = 2000
		for seed := int64(0); seed < n; seed++ {
			f := math.Log(NewSource(DEEPParams(), nodes, seed).RunFactorCompute())
			sum += f
			sum2 += f * f
		}
		mean := sum / n
		return math.Sqrt(sum2/n - mean*mean)
	}
	small, large := spread(2), spread(64)
	if large <= small*1.5 {
		t.Errorf("run spread does not grow with scale: %v → %v", small, large)
	}
}

func TestCommNoisierThanCompute(t *testing.T) {
	var commSpread, compSpread float64
	const n = 2000
	var cSum, cSum2, kSum, kSum2 float64
	for seed := int64(0); seed < n; seed++ {
		s := NewSource(DEEPParams(), 16, seed)
		lc := math.Log(s.RunFactorComm())
		lk := math.Log(s.RunFactorCompute())
		cSum += lc
		cSum2 += lc * lc
		kSum += lk
		kSum2 += lk * lk
	}
	commSpread = math.Sqrt(cSum2/n - (cSum/n)*(cSum/n))
	compSpread = math.Sqrt(kSum2/n - (kSum/n)*(kSum/n))
	if commSpread <= compSpread {
		t.Errorf("comm spread %v should exceed compute spread %v", commSpread, compSpread)
	}
}

func TestCountJitterRange(t *testing.T) {
	s := NewSource(DEEPParams(), 4, 5)
	counts := map[int]int{}
	for i := 0; i < 5000; i++ {
		j := s.CountJitter(2)
		if j < 0 || j > 2 {
			t.Fatalf("jitter %d out of range", j)
		}
		counts[j]++
	}
	// Zero must dominate (P(0) = 1/2) and both positive values occur.
	if counts[0] < 2000 {
		t.Errorf("zero jitter too rare: %v", counts)
	}
	if counts[1] == 0 || counts[2] == 0 {
		t.Errorf("positive jitter missing: %v", counts)
	}
}

func TestCountJitterZeroMax(t *testing.T) {
	s := NewSource(DEEPParams(), 4, 5)
	for i := 0; i < 100; i++ {
		if s.CountJitter(0) != 0 {
			t.Fatal("max=0 should always return 0")
		}
	}
}

func TestBytesJitterNearOne(t *testing.T) {
	s := NewSource(DEEPParams(), 4, 5)
	for i := 0; i < 1000; i++ {
		f := s.BytesJitter()
		if f < 0.8 || f > 1.25 {
			t.Fatalf("bytes jitter %v outside the ±2%%-sigma envelope", f)
		}
	}
}

func TestCountJitterIndependentOfTimingStream(t *testing.T) {
	// Drawing count jitter must not shift the timing-noise stream.
	a := NewSource(DEEPParams(), 8, 42)
	b := NewSource(DEEPParams(), 8, 42)
	for i := 0; i < 50; i++ {
		a.CountJitter(2) // extra draws on the count stream only
	}
	for i := 0; i < 20; i++ {
		if a.StepFactor() != b.StepFactor() {
			t.Fatal("count jitter perturbed the timing stream")
		}
	}
}

func TestZeroSigmaGivesUnitFactors(t *testing.T) {
	s := NewSource(Params{}, 4, 9)
	if !mathutil.Close(s.RunFactorCompute(), 1) || !mathutil.Close(s.StepFactor(), 1) || !mathutil.Close(s.KernelFactor(), 1) {
		t.Error("zero-sigma params should produce unit factors")
	}
}
