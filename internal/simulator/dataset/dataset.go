// Package dataset describes the five benchmark datasets of the paper's
// evaluation (Section 4.1): CIFAR-10, CIFAR-100, ImageNet, IMDB, and
// Speech Commands. Only the performance-relevant properties are modeled —
// sample counts, input shapes and bytes per sample — since sample *content*
// does not influence training time.
package dataset

import "fmt"

// Kind classifies the learning task.
type Kind int

// The task kinds of the benchmark suite.
const (
	KindImage Kind = iota
	KindText
	KindAudio
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindImage:
		return "image"
	case KindText:
		return "text"
	case KindAudio:
		return "audio"
	default:
		return "unknown"
	}
}

// Dataset describes one benchmark dataset.
type Dataset struct {
	// Name identifies the dataset, e.g. "cifar10".
	Name string
	// Kind is the task type.
	Kind Kind
	// TrainSamples and ValSamples are the split sizes.
	TrainSamples int
	ValSamples   int
	// Classes is the number of target classes.
	Classes int
	// InputShape is (H, W, C) for images/audio spectrograms and
	// (sequence length, embedding vocabulary, 1) for text.
	InputShape [3]int
	// BytesPerSample is the raw storage size of one sample.
	BytesPerSample float64
	// AugmentationFactor is the relative preprocessing cost of one sample
	// (1 = plain decode; >1 adds augmentation work).
	AugmentationFactor float64
	// PreprocessCostPerSample is the single-core CPU time in seconds to
	// decode/augment/tokenize one sample (JPEG decode for ImageNet,
	// spectrogram extraction for Speech Commands, tokenization for IMDB).
	// Input pipelines parallelize this across the rank's CPU cores.
	PreprocessCostPerSample float64
}

// InputElements returns the number of scalar elements per sample.
func (d Dataset) InputElements() int {
	return d.InputShape[0] * d.InputShape[1] * d.InputShape[2]
}

// TotalBytes returns the raw size of the training split.
func (d Dataset) TotalBytes() float64 {
	return float64(d.TrainSamples) * d.BytesPerSample
}

// Validate checks the descriptor for usability.
func (d Dataset) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("dataset: unnamed dataset")
	}
	if d.TrainSamples <= 0 || d.ValSamples < 0 {
		return fmt.Errorf("dataset %s: bad split sizes %d/%d", d.Name, d.TrainSamples, d.ValSamples)
	}
	if d.Classes <= 1 {
		return fmt.Errorf("dataset %s: %d classes", d.Name, d.Classes)
	}
	if d.InputElements() <= 0 {
		return fmt.Errorf("dataset %s: empty input shape", d.Name)
	}
	if d.BytesPerSample <= 0 {
		return fmt.Errorf("dataset %s: bytes per sample not set", d.Name)
	}
	return nil
}

// CIFAR10 returns the CIFAR-10 descriptor: 60 000 32×32 colour images in
// 10 classes (50 000 train / 10 000 test).
func CIFAR10() Dataset {
	return Dataset{
		Name: "cifar10", Kind: KindImage,
		TrainSamples: 50000, ValSamples: 10000, Classes: 10,
		InputShape: [3]int{32, 32, 3}, BytesPerSample: 32 * 32 * 3,
		AugmentationFactor:      1.5,
		PreprocessCostPerSample: 25e-6,
	}
}

// CIFAR100 returns the CIFAR-100 descriptor (same images, 100 classes).
func CIFAR100() Dataset {
	d := CIFAR10()
	d.Name = "cifar100"
	d.Classes = 100
	return d
}

// ImageNet returns the ILSVRC-2012 descriptor: ≈1.28 M training images,
// 50 000 validation images, 1 000 classes, 224×224 crops.
func ImageNet() Dataset {
	return Dataset{
		Name: "imagenet", Kind: KindImage,
		TrainSamples: 1281167, ValSamples: 50000, Classes: 1000,
		InputShape: [3]int{224, 224, 3}, BytesPerSample: 110 * 1024, // avg JPEG
		AugmentationFactor:      2.5,
		PreprocessCostPerSample: 1.5e-3,
	}
}

// IMDB returns the IMDB movie-review sentiment descriptor: 25 000 train /
// 25 000 test reviews, binary classification, 256-token sequences over a
// 20 000-word vocabulary.
func IMDB() Dataset {
	return Dataset{
		Name: "imdb", Kind: KindText,
		TrainSamples: 25000, ValSamples: 25000, Classes: 2,
		InputShape: [3]int{256, 20000, 1}, BytesPerSample: 256 * 4,
		AugmentationFactor:      1.0,
		PreprocessCostPerSample: 4e-4,
	}
}

// SpeechCommands returns the Google Speech Commands v2 descriptor:
// ≈85 000 train / 10 000 validation one-second utterances in 35 classes,
// presented as 124×129 log-mel spectrograms.
func SpeechCommands() Dataset {
	return Dataset{
		Name: "speechcommands", Kind: KindAudio,
		TrainSamples: 84843, ValSamples: 9981, Classes: 35,
		InputShape: [3]int{124, 129, 1}, BytesPerSample: 16000 * 2, // 1 s of 16 kHz PCM16
		AugmentationFactor:      1.8,
		PreprocessCostPerSample: 3e-4,
	}
}

// All returns the benchmark datasets keyed by name.
func All() map[string]Dataset {
	out := make(map[string]Dataset)
	for _, d := range []Dataset{CIFAR10(), CIFAR100(), ImageNet(), IMDB(), SpeechCommands()} {
		out[d.Name] = d
	}
	return out
}

// ByName looks a dataset up by name.
func ByName(name string) (Dataset, error) {
	d, ok := All()[name]
	if !ok {
		return Dataset{}, fmt.Errorf("dataset: unknown dataset %q", name)
	}
	return d, nil
}

// Names returns the dataset names in the paper's presentation order.
func Names() []string {
	return []string{"cifar10", "cifar100", "imagenet", "imdb", "speechcommands"}
}
