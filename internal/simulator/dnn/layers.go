// Package dnn models deep neural networks as layer graphs with exact
// per-layer parameter, FLOP and activation-size accounting. The four
// architectures of the paper's evaluation (Section 4.1) are provided:
// ResNet-50 (CIFAR-10/100), EfficientNet-B0 (ImageNet), a ten-layer CNN
// (Speech Commands) and an NNLM (IMDB). The training simulator charges
// compute kernels against these counts, so the *relative* cost structure
// of the benchmarks (ImageNet ≫ CIFAR ≫ IMDB) matches the paper's Fig. 8.
package dnn

import (
	"errors"
	"fmt"
)

// LayerType enumerates the supported layer operators.
type LayerType int

// The layer operators used by the four benchmark architectures.
const (
	Conv2D LayerType = iota
	DepthwiseConv2D
	Dense
	BatchNorm
	ReLU
	Swish
	MaxPool
	AvgPool
	GlobalAvgPool
	Add
	Embedding
	Dropout
	Softmax
	Flatten
	SqueezeExcite
)

// String names the layer type.
func (t LayerType) String() string {
	switch t {
	case Conv2D:
		return "conv2d"
	case DepthwiseConv2D:
		return "dwconv2d"
	case Dense:
		return "dense"
	case BatchNorm:
		return "batchnorm"
	case ReLU:
		return "relu"
	case Swish:
		return "swish"
	case MaxPool:
		return "maxpool"
	case AvgPool:
		return "avgpool"
	case GlobalAvgPool:
		return "globalavgpool"
	case Add:
		return "add"
	case Embedding:
		return "embedding"
	case Dropout:
		return "dropout"
	case Softmax:
		return "softmax"
	case Flatten:
		return "flatten"
	case SqueezeExcite:
		return "squeeze_excite"
	default:
		return fmt.Sprintf("layer(%d)", int(t))
	}
}

// Layer is one operator of a network with its cost accounting.
type Layer struct {
	// Name is the unique layer name within the model.
	Name string
	// Type is the operator.
	Type LayerType
	// OutH, OutW, OutC describe the output tensor (H=sequence length and
	// W=1 for text models).
	OutH, OutW, OutC int
	// Params is the number of trainable parameters.
	Params float64
	// FwdFLOPs is the forward-pass floating-point operations per sample.
	FwdFLOPs float64
	// The backward pass is charged at twice the forward cost (gradient
	// w.r.t. inputs and weights), the standard approximation.
}

// OutputElements returns the number of scalars in the output tensor.
func (l Layer) OutputElements() float64 {
	return float64(l.OutH) * float64(l.OutW) * float64(l.OutC)
}

// ActivationBytes returns the output activation size per sample in bytes
// (float32 storage).
func (l Layer) ActivationBytes() float64 { return l.OutputElements() * 4 }

// BwdFLOPs returns the backward-pass cost per sample.
func (l Layer) BwdFLOPs() float64 { return 2 * l.FwdFLOPs }

// IsCompute reports whether the layer performs substantial GPU compute
// (as opposed to shape plumbing like Flatten).
func (l Layer) IsCompute() bool {
	switch l.Type {
	case Flatten, Dropout:
		return false
	}
	return true
}

// Model is a sequential layer graph (residual adds are represented as Add
// layers whose FLOPs cover the element-wise sum).
type Model struct {
	// Name identifies the architecture, e.g. "resnet50".
	Name string
	// InputH, InputW, InputC is the input tensor shape.
	InputH, InputW, InputC int
	// Layers is the operator sequence.
	Layers []Layer
}

// Validate checks structural sanity.
func (m *Model) Validate() error {
	if m.Name == "" {
		return errors.New("dnn: unnamed model")
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("dnn: model %s has no layers", m.Name)
	}
	seen := make(map[string]bool, len(m.Layers))
	for _, l := range m.Layers {
		if l.Name == "" {
			return fmt.Errorf("dnn: model %s has an unnamed layer", m.Name)
		}
		if seen[l.Name] {
			return fmt.Errorf("dnn: model %s has duplicate layer %q", m.Name, l.Name)
		}
		seen[l.Name] = true
		if l.Params < 0 || l.FwdFLOPs < 0 {
			return fmt.Errorf("dnn: layer %s has negative accounting", l.Name)
		}
	}
	return nil
}

// TotalParams returns the number of trainable parameters.
func (m *Model) TotalParams() float64 {
	var total float64
	for _, l := range m.Layers {
		total += l.Params
	}
	return total
}

// FwdFLOPs returns the forward-pass FLOPs per sample.
func (m *Model) FwdFLOPs() float64 {
	var total float64
	for _, l := range m.Layers {
		total += l.FwdFLOPs
	}
	return total
}

// TrainFLOPs returns the per-sample cost of one training step (forward +
// backward ≈ 3× forward).
func (m *Model) TrainFLOPs() float64 { return 3 * m.FwdFLOPs() }

// GradientBytes returns the size of one full gradient exchange in bytes
// (float32 gradients, one per parameter).
func (m *Model) GradientBytes() float64 { return m.TotalParams() * 4 }

// ComputeLayers returns the layers that map to GPU compute kernels.
func (m *Model) ComputeLayers() []Layer {
	out := make([]Layer, 0, len(m.Layers))
	for _, l := range m.Layers {
		if l.IsCompute() {
			out = append(out, l)
		}
	}
	return out
}

// --- layer constructors -----------------------------------------------

// convOut returns the spatial output size of a same/valid convolution.
// A non-positive stride is treated as 1 rather than dividing by zero.
func convOut(in, kernel, stride int, same bool) int {
	if stride <= 0 {
		stride = 1
	}
	if same {
		return (in + stride - 1) / stride
	}
	return (in-kernel)/stride + 1
}

// conv2D builds a standard convolution layer. Padding is "same".
func conv2D(name string, inH, inW, inC, outC, kernel, stride int, bias bool) Layer {
	outH := convOut(inH, kernel, stride, true)
	outW := convOut(inW, kernel, stride, true)
	params := float64(kernel * kernel * inC * outC)
	if bias {
		params += float64(outC)
	}
	// 2 FLOPs (mul+add) per MAC.
	flops := 2 * float64(outH) * float64(outW) * float64(outC) * float64(kernel*kernel*inC)
	return Layer{Name: name, Type: Conv2D, OutH: outH, OutW: outW, OutC: outC, Params: params, FwdFLOPs: flops}
}

// dwConv2D builds a depthwise convolution (one filter per channel).
func dwConv2D(name string, inH, inW, channels, kernel, stride int) Layer {
	outH := convOut(inH, kernel, stride, true)
	outW := convOut(inW, kernel, stride, true)
	params := float64(kernel * kernel * channels)
	flops := 2 * float64(outH) * float64(outW) * float64(channels) * float64(kernel*kernel)
	return Layer{Name: name, Type: DepthwiseConv2D, OutH: outH, OutW: outW, OutC: channels, Params: params, FwdFLOPs: flops}
}

// dense builds a fully connected layer.
func dense(name string, inUnits, outUnits int, bias bool) Layer {
	params := float64(inUnits * outUnits)
	if bias {
		params += float64(outUnits)
	}
	return Layer{Name: name, Type: Dense, OutH: 1, OutW: 1, OutC: outUnits, Params: params, FwdFLOPs: 2 * float64(inUnits) * float64(outUnits)}
}

// batchNorm builds a batch-normalization layer (2 trainable + 2 running
// statistics per channel; only γ and β are trainable parameters).
func batchNorm(name string, h, w, c int) Layer {
	return Layer{Name: name, Type: BatchNorm, OutH: h, OutW: w, OutC: c, Params: 2 * float64(c), FwdFLOPs: 4 * float64(h) * float64(w) * float64(c)}
}

// activation builds an element-wise activation layer.
func activation(name string, t LayerType, h, w, c int) Layer {
	perElem := 1.0
	if t == Swish {
		perElem = 4 // sigmoid + multiply
	}
	return Layer{Name: name, Type: t, OutH: h, OutW: w, OutC: c, FwdFLOPs: perElem * float64(h) * float64(w) * float64(c)}
}

// pool builds a max/avg pooling layer.
func pool(name string, t LayerType, inH, inW, c, kernel, stride int) Layer {
	outH := convOut(inH, kernel, stride, true)
	outW := convOut(inW, kernel, stride, true)
	return Layer{Name: name, Type: t, OutH: outH, OutW: outW, OutC: c, FwdFLOPs: float64(outH) * float64(outW) * float64(c) * float64(kernel*kernel)}
}

// globalAvgPool reduces H×W×C to 1×1×C.
func globalAvgPool(name string, inH, inW, c int) Layer {
	return Layer{Name: name, Type: GlobalAvgPool, OutH: 1, OutW: 1, OutC: c, FwdFLOPs: float64(inH) * float64(inW) * float64(c)}
}

// residualAdd is an element-wise sum of two tensors.
func residualAdd(name string, h, w, c int) Layer {
	return Layer{Name: name, Type: Add, OutH: h, OutW: w, OutC: c, FwdFLOPs: float64(h) * float64(w) * float64(c)}
}

// embedding builds a token-embedding lookup.
func embedding(name string, vocab, dim, seqLen int) Layer {
	return Layer{
		Name: name, Type: Embedding,
		OutH: seqLen, OutW: 1, OutC: dim,
		Params:   float64(vocab) * float64(dim),
		FwdFLOPs: float64(seqLen) * float64(dim), // gather cost
	}
}

// softmax builds the output activation.
func softmax(name string, classes int) Layer {
	return Layer{Name: name, Type: Softmax, OutH: 1, OutW: 1, OutC: classes, FwdFLOPs: 5 * float64(classes)}
}

// squeezeExcite builds an SE block (global pool + two dense layers +
// channel-wise scale) on an H×W×C tensor; reduced counts the bottleneck
// units, conventionally derived from the MBConv block's *input* channels.
func squeezeExcite(name string, h, w, c, reduced int) Layer {
	params := float64(c*reduced+reduced) + float64(reduced*c+c)
	flops := float64(h*w*c) + // squeeze (global pool)
		2*float64(c*reduced) + 2*float64(reduced*c) + // two dense layers
		float64(h*w*c) // excite (scale)
	return Layer{Name: name, Type: SqueezeExcite, OutH: h, OutW: w, OutC: c, Params: params, FwdFLOPs: flops}
}
