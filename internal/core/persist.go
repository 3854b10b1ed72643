package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/pipeline"
)

// modelFileVersion identifies the persisted model format.
const modelFileVersion = 1

// modelFile is the on-disk layout of a model set; each entry uses the
// pipeline's SavedModel layout, shared with checkpoint task records.
type modelFile struct {
	Version int `json:"version"`
	// App maps application callpaths to models.
	App map[string]pipeline.SavedModel `json:"app"`
	// Kernel maps metric → callpath → model.
	Kernel map[measurement.Metric]map[string]pipeline.SavedModel `json:"kernel"`
}

// EncodeModels canonically serializes a model set into the persisted
// model-file JSON (sorted keys via encoding/json's map ordering, stable
// field order), so two identical model sets always encode to identical
// bytes. SaveModels writes exactly these bytes; edserve's /models
// endpoint returns them, which is what makes API-path versus batch-path
// fit parity byte-comparable.
func EncodeModels(ms *pipeline.ModelSet) ([]byte, error) {
	if ms == nil {
		return nil, errors.New("core: nil model set")
	}
	mf := modelFile{
		Version: modelFileVersion,
		App:     make(map[string]pipeline.SavedModel, len(ms.App)),
		Kernel:  make(map[measurement.Metric]map[string]pipeline.SavedModel, len(ms.Kernel)),
	}
	for path, m := range ms.App {
		mf.App[path] = pipeline.SaveModel(m)
	}
	for metric, byPath := range ms.Kernel {
		dst := make(map[string]pipeline.SavedModel, len(byPath))
		for path, m := range byPath {
			dst[path] = pipeline.SaveModel(m)
		}
		mf.Kernel[metric] = dst
	}
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("core: encoding models: %w", err)
	}
	return data, nil
}

// SaveModels writes a model set to a JSON file, so an expensive modeling
// campaign's results can be reused for predictions without re-profiling.
func SaveModels(path string, ms *pipeline.ModelSet) error {
	data, err := EncodeModels(ms)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("core: writing models: %w", err)
	}
	return nil
}

// LoadModels reads a model set previously written by SaveModels.
func LoadModels(path string) (*pipeline.ModelSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading models: %w", err)
	}
	var mf modelFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("core: decoding models: %w", err)
	}
	if mf.Version != modelFileVersion {
		return nil, fmt.Errorf("core: unsupported model-file version %d (want %d)", mf.Version, modelFileVersion)
	}
	ms := &pipeline.ModelSet{
		App:    make(map[string]*modeling.Model, len(mf.App)),
		Kernel: make(map[measurement.Metric]map[string]*modeling.Model, len(mf.Kernel)),
	}
	for p, s := range mf.App {
		m, err := s.Model()
		if err != nil {
			return nil, fmt.Errorf("core: app model %q: %w", p, err)
		}
		ms.App[p] = m
	}
	for metric, byPath := range mf.Kernel {
		dst := make(map[string]*modeling.Model, len(byPath))
		for p, s := range byPath {
			m, err := s.Model()
			if err != nil {
				return nil, fmt.Errorf("core: kernel model %q/%q: %w", metric, p, err)
			}
			dst[p] = m
		}
		ms.Kernel[metric] = dst
	}
	return ms, nil
}
