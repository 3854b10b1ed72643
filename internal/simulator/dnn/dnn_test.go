package dnn

import (
	"strings"
	"testing"

	"extradeep/internal/mathutil"
)

func TestResNet50ImageNetParams(t *testing.T) {
	m := ResNet50(224, 224, 3, 1000)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	p := m.TotalParams()
	// Canonical ResNet-50 has ≈25.6 M parameters.
	if p < 24e6 || p > 27e6 {
		t.Errorf("ResNet-50 params = %v, want ≈25.6M", p)
	}
}

func TestResNet50ImageNetFLOPs(t *testing.T) {
	m := ResNet50(224, 224, 3, 1000)
	f := m.FwdFLOPs()
	// Canonical forward cost ≈ 4.1 GMACs ≈ 8.2 GFLOPs.
	if f < 6e9 || f > 10e9 {
		t.Errorf("ResNet-50 fwd FLOPs = %v, want ≈8.2e9", f)
	}
}

func TestResNet50CIFARSmallStem(t *testing.T) {
	m := ResNet50(32, 32, 3, 10)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Small-input variant: no 7×7 stem, no max-pool.
	for _, l := range m.Layers {
		if l.Name == "pool1" {
			t.Error("CIFAR ResNet-50 should not have the stem max-pool")
		}
	}
	// Parameters barely change (only the fc layer shrinks).
	p := m.TotalParams()
	if p < 22e6 || p > 26e6 {
		t.Errorf("CIFAR ResNet-50 params = %v", p)
	}
}

func TestEfficientNetB0Params(t *testing.T) {
	m := EfficientNetB0(224, 224, 3, 1000)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	p := m.TotalParams()
	// Canonical EfficientNet-B0 has ≈5.3 M parameters.
	if p < 4.3e6 || p > 6.3e6 {
		t.Errorf("EfficientNet-B0 params = %v, want ≈5.3M", p)
	}
}

func TestEfficientNetB0FLOPs(t *testing.T) {
	m := EfficientNetB0(224, 224, 3, 1000)
	f := m.FwdFLOPs()
	// Canonical ≈0.39 GMACs ≈ 0.78 GFLOPs.
	if f < 0.5e9 || f > 1.3e9 {
		t.Errorf("EfficientNet-B0 fwd FLOPs = %v, want ≈0.78e9", f)
	}
}

func TestCNN10HasTenHiddenLayers(t *testing.T) {
	m := CNN10(124, 129, 1, 35)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	convs, denses := 0, 0
	for _, l := range m.Layers {
		switch l.Type {
		case Conv2D:
			convs++
		case Dense:
			denses++
		}
	}
	// 8 conv + 2 hidden dense = 10 hidden layers; +1 classifier dense.
	if convs != 8 {
		t.Errorf("CNN10 convs = %d, want 8", convs)
	}
	if denses != 3 {
		t.Errorf("CNN10 dense layers = %d, want 3 (2 hidden + classifier)", denses)
	}
}

func TestNNLMParamsDominatedByEmbedding(t *testing.T) {
	m := NNLM(256, 20000, 2)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var embParams float64
	for _, l := range m.Layers {
		if l.Type == Embedding {
			embParams = l.Params
		}
	}
	if !mathutil.Close(embParams, 20000*128) {
		t.Errorf("embedding params = %v, want 2.56M", embParams)
	}
	if embParams/m.TotalParams() < 0.9 {
		t.Errorf("embedding should dominate NNLM params (%v of %v)", embParams, m.TotalParams())
	}
}

func TestRelativeComputeCostsMatchPaper(t *testing.T) {
	// The paper's Fig. 8 hierarchy: ImageNet ≫ CIFAR ≫ Speech Commands >
	// IMDB in per-epoch compute. Per-sample cost × samples gives the
	// epoch cost ordering.
	resnetCIFAR := ResNet50(32, 32, 3, 10).TrainFLOPs() * 50000
	effnetImageNet := EfficientNetB0(224, 224, 3, 1000).TrainFLOPs() * 1281167
	nnlmIMDB := NNLM(256, 20000, 2).TrainFLOPs() * 25000
	cnnSpeech := CNN10(124, 129, 1, 35).TrainFLOPs() * 84843

	if effnetImageNet <= resnetCIFAR {
		t.Error("ImageNet epoch should cost more than CIFAR-10 epoch")
	}
	if resnetCIFAR <= cnnSpeech {
		t.Error("CIFAR-10 epoch should cost more than Speech Commands epoch")
	}
	if cnnSpeech <= nnlmIMDB {
		t.Error("Speech Commands epoch should cost more than IMDB epoch")
	}
}

func TestGradientBytes(t *testing.T) {
	m := ResNet50(224, 224, 3, 1000)
	if !mathutil.Close(m.GradientBytes(), m.TotalParams()*4) {
		t.Error("gradient bytes should be 4 bytes per parameter")
	}
}

func TestTrainFLOPsIsThreeTimesForward(t *testing.T) {
	m := CNN10(124, 129, 1, 35)
	if !mathutil.Close(m.TrainFLOPs(), 3*m.FwdFLOPs()) {
		t.Error("train FLOPs should be 3× forward")
	}
}

func TestComputeLayersExcludePlumbing(t *testing.T) {
	m := CNN10(124, 129, 1, 35)
	for _, l := range m.ComputeLayers() {
		if l.Type == Flatten || l.Type == Dropout {
			t.Errorf("plumbing layer %s in compute set", l.Name)
		}
	}
	if len(m.ComputeLayers()) == 0 {
		t.Error("no compute layers")
	}
}

func TestLayerAccounting(t *testing.T) {
	// conv2D: 3×3×16→32 on 8×8 input, stride 1: params = 9·16·32 = 4608,
	// FLOPs = 2·8·8·32·(9·16) = 589824.
	l := conv2D("c", 8, 8, 16, 32, 3, 1, false)
	if !mathutil.Close(l.Params, 4608) {
		t.Errorf("conv params = %v, want 4608", l.Params)
	}
	if !mathutil.Close(l.FwdFLOPs, 589824) {
		t.Errorf("conv FLOPs = %v, want 589824", l.FwdFLOPs)
	}
	if l.OutH != 8 || l.OutW != 8 || l.OutC != 32 {
		t.Errorf("conv shape = %dx%dx%d", l.OutH, l.OutW, l.OutC)
	}
	// Stride 2 halves the spatial dims (same padding).
	l2 := conv2D("c2", 8, 8, 16, 32, 3, 2, false)
	if l2.OutH != 4 || l2.OutW != 4 {
		t.Errorf("strided conv shape = %dx%d, want 4x4", l2.OutH, l2.OutW)
	}
}

func TestDenseAccounting(t *testing.T) {
	l := dense("d", 100, 10, true)
	if !mathutil.Close(l.Params, 100*10+10) {
		t.Errorf("dense params = %v", l.Params)
	}
	if !mathutil.Close(l.FwdFLOPs, 2*100*10) {
		t.Errorf("dense FLOPs = %v", l.FwdFLOPs)
	}
}

func TestDepthwiseAccounting(t *testing.T) {
	l := dwConv2D("dw", 16, 16, 32, 3, 1)
	if !mathutil.Close(l.Params, 9*32) {
		t.Errorf("dw params = %v, want 288", l.Params)
	}
	if !mathutil.Close(l.FwdFLOPs, 2*16*16*32*9) {
		t.Errorf("dw FLOPs = %v", l.FwdFLOPs)
	}
}

func TestBwdFLOPsTwiceForward(t *testing.T) {
	l := dense("d", 10, 10, false)
	if !mathutil.Close(l.BwdFLOPs(), 2*l.FwdFLOPs) {
		t.Error("backward should be 2× forward")
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	m := &Model{Name: "dup", Layers: []Layer{
		{Name: "a", Type: Dense},
		{Name: "a", Type: Dense},
	}}
	if m.Validate() == nil {
		t.Error("duplicate layer names accepted")
	}
}

func TestValidateCatchesNegativeAccounting(t *testing.T) {
	m := &Model{Name: "neg", Layers: []Layer{{Name: "a", Type: Dense, Params: -1}}}
	if m.Validate() == nil {
		t.Error("negative params accepted")
	}
}

func TestValidateCatchesEmpty(t *testing.T) {
	if (&Model{Name: "empty"}).Validate() == nil {
		t.Error("empty model accepted")
	}
	if (&Model{Layers: []Layer{{Name: "a"}}}).Validate() == nil {
		t.Error("unnamed model accepted")
	}
}

func TestForBenchmark(t *testing.T) {
	cases := []struct {
		dataset string
		want    string
	}{
		{"cifar10", "resnet50"},
		{"cifar100", "resnet50"},
		{"imagenet", "efficientnet_b0"},
		{"imdb", "nnlm"},
		{"speechcommands", "cnn10"},
	}
	for _, c := range cases {
		m, err := ForBenchmark(c.dataset, 224, 224, 3, 10)
		if c.dataset == "imdb" {
			m, err = ForBenchmark(c.dataset, 256, 20000, 1, 2)
		}
		if err != nil {
			t.Errorf("%s: %v", c.dataset, err)
			continue
		}
		if m.Name != c.want {
			t.Errorf("%s → %s, want %s", c.dataset, m.Name, c.want)
		}
	}
	if _, err := ForBenchmark("mnist", 28, 28, 1, 10); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestLayerTypeStringsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for lt := Conv2D; lt <= SqueezeExcite; lt++ {
		s := lt.String()
		if strings.HasPrefix(s, "layer(") {
			t.Errorf("missing name for layer type %d", int(lt))
		}
		if seen[s] {
			t.Errorf("duplicate layer-type name %q", s)
		}
		seen[s] = true
	}
}
