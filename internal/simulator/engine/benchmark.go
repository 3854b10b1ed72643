// Package engine simulates distributed DNN training runs and produces the
// per-rank profiler traces Extra-Deep's pipeline consumes. It is the
// substitute for the paper's measurement substrate (TensorFlow/PyTorch +
// Horovod on the DEEP and JURECA clusters profiled with Nsight Systems),
// reproducing the same observable interface: named, categorized,
// timestamped kernel events per MPI rank, bracketed by NVTX step and epoch
// marks, with warm-up distortion in the first epoch and seeded system
// noise that grows with scale.
package engine

import (
	"fmt"

	"extradeep/internal/epoch"
	"extradeep/internal/measurement"
	"extradeep/internal/simulator/dataset"
	"extradeep/internal/simulator/dnn"
	"extradeep/internal/simulator/parallel"
)

// Benchmark pairs a dataset with its architecture and batch size, matching
// the paper's five application benchmarks.
type Benchmark struct {
	// Name is the benchmark identifier (the dataset name).
	Name string
	// Dataset is the input data descriptor.
	Dataset dataset.Dataset
	// Model is the DNN architecture.
	Model *dnn.Model
	// BatchSize is the per-worker batch size B.
	BatchSize int
}

// Validate checks the benchmark's consistency.
func (b Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("engine: unnamed benchmark")
	}
	if err := b.Dataset.Validate(); err != nil {
		return err
	}
	if b.Model == nil {
		return fmt.Errorf("engine: benchmark %s has no model", b.Name)
	}
	if err := b.Model.Validate(); err != nil {
		return err
	}
	if b.BatchSize <= 0 {
		return fmt.Errorf("engine: benchmark %s batch size %d", b.Name, b.BatchSize)
	}
	return nil
}

// ByName builds one of the paper's five benchmarks: CIFAR-10 and CIFAR-100
// train a ResNet-50 with batch 256 per rank (the case-study setup),
// ImageNet an EfficientNet-B0, IMDB the NNLM, and Speech Commands the
// ten-layer CNN.
func ByName(name string) (Benchmark, error) {
	ds, err := dataset.ByName(name)
	if err != nil {
		return Benchmark{}, err
	}
	m, err := dnn.ForBenchmark(name, ds.InputShape[0], ds.InputShape[1], ds.InputShape[2], ds.Classes)
	if err != nil {
		return Benchmark{}, err
	}
	batch := 256
	switch name {
	case "imagenet", "imdb":
		batch = 128
	}
	return Benchmark{Name: name, Dataset: ds, Model: m, BatchSize: batch}, nil
}

// Benchmarks returns all five paper benchmarks in presentation order.
func Benchmarks() ([]Benchmark, error) {
	var out []Benchmark
	for _, name := range dataset.Names() {
		b, err := ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// GlobalBatchFactor anchors the fixed global batch of strong-scaling runs:
// the global batch is BatchSize × GlobalBatchFactor samples per step, so a
// run with 8 data-parallel workers uses the benchmark's nominal per-worker
// batch, and larger allocations shrink the per-worker batch accordingly.
// This is the standard strong-scaling regime (same problem, same global
// batch, more resources) and matches the paper's note that batch-related
// values are "naturally adjusted" as the rank count scales (Section 4.1).
const GlobalBatchFactor = 8

// PerWorkerBatch returns the per-worker batch size B of a configuration:
// the nominal batch under weak scaling, and the fixed global batch divided
// by the number of data-parallel workers under strong scaling (≥ 1).
func PerWorkerBatch(b Benchmark, strategy parallel.Strategy, ranks int, weakScaling bool) float64 {
	if weakScaling {
		return float64(b.BatchSize)
	}
	g, m := strategy.Degrees(ranks)
	workers := g / m
	if workers < 1 {
		workers = 1
	}
	pb := float64(b.BatchSize) * GlobalBatchFactor / workers
	if pb < 1 {
		pb = 1
	}
	return pb
}

// EpochParams returns the analytical training-setup values (Section 2.3.1)
// for the benchmark at the given scale: per-worker batch size, dataset
// sizes (weak scaling multiplies the training set by the rank count, as in
// the case-study benchmark), and the strategy's parallel degrees.
func EpochParams(b Benchmark, strategy parallel.Strategy, ranks int, weakScaling bool) epoch.Params {
	g, m := strategy.Degrees(ranks)
	train := float64(b.Dataset.TrainSamples)
	if weakScaling {
		train *= float64(ranks)
	}
	return epoch.Params{
		BatchSize:     PerWorkerBatch(b, strategy, ranks, weakScaling),
		TrainSamples:  train,
		ValSamples:    float64(b.Dataset.ValSamples),
		DataParallel:  g,
		ModelParallel: m,
	}
}

// SetupFunc returns the epoch.SetupFunc for a benchmark/strategy pair,
// treating the first point coordinate as the rank count. It feeds the
// epoch extrapolation of the modeling pipeline.
func SetupFunc(b Benchmark, strategy parallel.Strategy, weakScaling bool) epoch.SetupFunc {
	return func(point measurement.Point) epoch.Params {
		ranks := int(point[0])
		return EpochParams(b, strategy, ranks, weakScaling)
	}
}

// SetupFromFlags derives the epoch.SetupFunc the extradeep and edserve
// commands fit with: from the built-in benchmark named by benchmark or,
// when that is empty, from an explicit per-worker batch size, training
// and validation set sizes and model-parallel degree m.
func SetupFromFlags(benchmark string, strategy parallel.Strategy, weakScaling bool, batch, trainSamples, valSamples, m float64) (epoch.SetupFunc, error) {
	if benchmark != "" {
		b, err := ByName(benchmark)
		if err != nil {
			return nil, err
		}
		return SetupFunc(b, strategy, weakScaling), nil
	}
	if batch <= 0 || trainSamples <= 0 {
		return nil, fmt.Errorf("either -benchmark or -batch and -train-samples must be given")
	}
	return func(point measurement.Point) epoch.Params {
		ranks := point[0]
		train := trainSamples
		if weakScaling {
			train *= ranks
		}
		return epoch.Params{
			BatchSize:     batch,
			TrainSamples:  train,
			ValSamples:    valSamples,
			DataParallel:  ranks,
			ModelParallel: m,
		}
	}, nil
}
