package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"extradeep/internal/epoch"
	"extradeep/internal/pipeline"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// The simulated application every workload profiles: ResNet-50 on
// CIFAR-10, data-parallel with weak scaling on the DEEP system.
const benchmarkName = "cifar10"

// Case-study corpus (serve-upload): 5 rank counts × 5
// repetitions with 4 sampled ranks per run gives 90 profile files.
var (
	caseRanks       = []int{2, 4, 6, 8, 10}
	caseReps        = 5
	caseSampleRanks = 4
)

// Grid corpus (batch-grid): ranks × per-worker batch size, one
// repetition and one sampled rank per cell gives 25 profile files.
var (
	gridRanks   = []int{2, 4, 6, 8, 10}
	gridBatches = []int{32, 64, 96, 128, 160}
)

func runConfig(seed int64, sampleRanks int) engine.RunConfig {
	return engine.RunConfig{
		System:      hardware.DEEP(),
		Strategy:    parallel.DataParallel{},
		WeakScaling: true,
		Seed:        seed,
		SampleRanks: sampleRanks,
	}
}

// analyzeOptions are the Section 3 options edserve and the batch CLI use
// for the DEEP system.
func analyzeOptions() pipeline.AnalyzeOptions {
	return pipeline.AnalyzeOptions{CoresPerRank: float64(hardware.DEEP().CoresPerRank), TopKernels: 10}
}

// caseStudySetup is the case study's training setup per configuration.
func caseStudySetup() (epoch.SetupFunc, error) {
	b, err := engine.ByName(benchmarkName)
	if err != nil {
		return nil, err
	}
	return engine.SetupFunc(b, parallel.DataParallel{}, true), nil
}

// caseStudyCorpus simulates the case-study campaign and returns its
// profile documents keyed by canonical file name.
func caseStudyCorpus(seed int64) (map[string][]byte, error) {
	b, err := engine.ByName(benchmarkName)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, r := range caseRanks {
		cfg := runConfig(seed, caseSampleRanks)
		cfg.Ranks = r
		for rep := 1; rep <= caseReps; rep++ {
			if err := addProfiles(files, b, cfg, rep); err != nil {
				return nil, err
			}
		}
	}
	return files, nil
}

// gridCorpus simulates a two-parameter (ranks p, batch b) campaign.
func gridCorpus(seed int64, ranks, batches []int) (map[string][]byte, error) {
	b, err := engine.ByName(benchmarkName)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, r := range ranks {
		for _, batch := range batches {
			bench := b
			bench.BatchSize = batch
			cfg := runConfig(seed, 1)
			cfg.Ranks = r
			cfg.ProfileParams = []string{"p", "b"}
			cfg.ProfilePoint = []float64{float64(r), float64(batch)}
			if err := addProfiles(files, bench, cfg, 1); err != nil {
				return nil, err
			}
		}
	}
	return files, nil
}

func addProfiles(files map[string][]byte, b engine.Benchmark, cfg engine.RunConfig, rep int) error {
	ps, err := engine.Profile(b, cfg, rep, true)
	if err != nil {
		return fmt.Errorf("simulating %d ranks rep %d: %w", cfg.Ranks, rep, err)
	}
	for _, p := range ps {
		data, err := json.Marshal(p)
		if err != nil {
			return err
		}
		files[p.FileName()] = data
	}
	return nil
}

// sortedNames returns a corpus's file names in order.
func sortedNames(files map[string][]byte) []string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeCorpus lays a corpus out as a profile directory and returns its
// total size in bytes.
func writeCorpus(dir string, files map[string][]byte) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var total int64
	for _, n := range sortedNames(files) {
		if err := os.WriteFile(filepath.Join(dir, n), files[n], 0o644); err != nil {
			return 0, err
		}
		total += int64(len(files[n]))
	}
	return total, nil
}

// envelope is edserve's upload request body.
type envelope struct {
	Format   string        `json:"format"`
	Profiles []envelopeDoc `json:"profiles"`
}

type envelopeDoc struct {
	Content string `json:"content"`
}

// envelopeOf packs a corpus into one upload body, in file-name order.
func envelopeOf(files map[string][]byte) ([]byte, error) {
	req := envelope{Format: "json"}
	for _, n := range sortedNames(files) {
		req.Profiles = append(req.Profiles, envelopeDoc{Content: string(files[n])})
	}
	return json.Marshal(req)
}
