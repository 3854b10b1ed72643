// Package profile defines the on-disk profile format of Extra-Deep: one
// JSON file per (application configuration, MPI rank, repetition), named
// after the paper's Fig. 1 convention, e.g. "cifar10.x4.mpi0.r1.json".
// A Store writes directories of such profiles, Decode reads one back, and
// GroupByConfig groups them for the aggregation pipeline.
package profile

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"extradeep/internal/measurement"
	"extradeep/internal/trace"
)

// Profile is the complete profiling output of one rank of one run.
type Profile struct {
	// App is the benchmark/application name, e.g. "cifar10".
	App string `json:"app"`
	// Params are the execution-parameter names, e.g. ["p"].
	Params []string `json:"params"`
	// Config are the parameter values of this application configuration.
	Config []float64 `json:"config"`
	// Rank is the MPI rank this profile belongs to.
	Rank int `json:"rank"`
	// Rep is the 1-based repetition index of the measurement.
	Rep int `json:"rep"`
	// WallTime is the total wall-clock time of the (possibly sampled)
	// profiled run in seconds, used to quantify profiling overhead.
	WallTime float64 `json:"wall_time"`
	// Sampled records whether the efficient sampling strategy was used
	// (only a few steps profiled) or the full run was profiled.
	Sampled bool `json:"sampled"`
	// Trace is the recorded event stream. A profile loaded with its
	// Summary keeps only the trace's rank.
	Trace trace.Trace `json:"trace"`
	// Summary, when set, is the trace's summary (trace.Summarizer), built
	// when the profile was loaded; the events it was built from are gone.
	// It is never encoded.
	Summary *trace.Summary `json:"-"`
}

// Point returns the profile's application configuration as a measurement
// point.
func (p *Profile) Point() measurement.Point { return measurement.Point(p.Config).Clone() }

// Validate checks the profile's structural integrity, including that every
// numeric field is a finite number: a NaN or Inf configuration value or
// wall time would poison the modeling pipeline without ever failing a
// decode, so it is rejected here at the boundary.
func (p *Profile) Validate() error {
	if p.App == "" {
		return errors.New("profile: empty application name")
	}
	if len(p.Params) != len(p.Config) {
		return fmt.Errorf("profile: %d parameter names for %d values", len(p.Params), len(p.Config))
	}
	for i, v := range p.Config {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("profile: non-finite configuration value %v for parameter %d", v, i)
		}
	}
	if p.Rank < 0 {
		return fmt.Errorf("profile: negative rank %d", p.Rank)
	}
	if p.Rep < 1 {
		return fmt.Errorf("profile: repetition index %d (must be ≥ 1)", p.Rep)
	}
	if math.IsNaN(p.WallTime) || math.IsInf(p.WallTime, 0) || p.WallTime < 0 {
		return fmt.Errorf("profile: invalid wall time %v", p.WallTime)
	}
	return p.Trace.Validate()
}

// FileName returns the canonical profile file name, e.g.
// "cifar10.x4.mpi0.r1.json"; multi-parameter configurations join values
// with underscores: "cifar10.x4_256.mpi0.r1.json".
func FileName(app string, config []float64, rank, rep int) string {
	vals := make([]string, len(config))
	for i, v := range config {
		vals[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return fmt.Sprintf("%s.x%s.mpi%d.r%d.json", app, strings.Join(vals, "_"), rank, rep)
}

// FileName returns the profile's canonical file name.
func (p *Profile) FileName() string { return FileName(p.App, p.Config, p.Rank, p.Rep) }

// ParseFileName parses a canonical profile file name (any extension) back
// into its parts. It is the inverse of FileName and lets diagnostics name
// the application configuration a file belonged to even when the file
// itself is too corrupted to decode. ok is false for names that do not
// follow the app.x<config>.mpi<rank>.r<rep> convention.
func ParseFileName(name string) (app string, config []float64, rank, rep int, ok bool) {
	base := filepath.Base(name)
	// Strip only known profile extensions: configuration values may contain
	// dots ("imdb.x0.5.mpi10.r5"), so a generic Ext() strip would eat data.
	for _, ext := range []string{".json", ".csv"} {
		if strings.HasSuffix(base, ext) {
			base = strings.TrimSuffix(base, ext)
			break
		}
	}
	// Parse right to left: .r<rep>, then .mpi<rank>, then .x<config>.
	i := strings.LastIndex(base, ".r")
	if i < 0 {
		return "", nil, 0, 0, false
	}
	rep, err := strconv.Atoi(base[i+len(".r"):])
	if err != nil || rep < 1 {
		return "", nil, 0, 0, false
	}
	base = base[:i]
	i = strings.LastIndex(base, ".mpi")
	if i < 0 {
		return "", nil, 0, 0, false
	}
	rank, err = strconv.Atoi(base[i+len(".mpi"):])
	if err != nil || rank < 0 {
		return "", nil, 0, 0, false
	}
	base = base[:i]
	i = strings.LastIndex(base, ".x")
	if i <= 0 { // the app name must be non-empty
		return "", nil, 0, 0, false
	}
	for _, part := range strings.Split(base[i+len(".x"):], "_") {
		v, err := strconv.ParseFloat(part, 64)
		// ParseFloat accepts "NaN"/"Inf" and maps 1e999 to +Inf; a
		// canonical name never carries a non-finite configuration value.
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", nil, 0, 0, false
		}
		config = append(config, v)
	}
	return base[:i], config, rank, rep, true
}

// Store writes profiles into a directory.
type Store struct {
	// Dir is the directory holding the profile files.
	Dir string
}

// Write serializes the profile into the store's directory, creating the
// directory if needed. A profile that carries a Summary is refused: its
// events are gone, and writing it would write an empty trace.
func (s *Store) Write(p *Profile) error {
	if p.Summary != nil {
		return fmt.Errorf("profile: %s holds its trace's summary, not its events, and cannot be written", p.FileName())
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("profile: creating store dir: %w", err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("profile: encoding %s: %w", p.FileName(), err)
	}
	path := filepath.Join(s.Dir, p.FileName())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("profile: writing %s: %w", path, err)
	}
	return nil
}

// ConfigKey identifies one application configuration of one app.
type ConfigKey struct {
	App string
	// Point is the canonical key of the configuration's parameter values.
	Point string
}

// GroupByConfig groups profiles by (app, configuration); within each group
// the profiles are ordered by (repetition, rank). This is the input shape
// the aggregation pipeline expects: all ranks and repetitions of one
// measurement point together.
func GroupByConfig(profiles []*Profile) map[ConfigKey][]*Profile {
	groups := make(map[ConfigKey][]*Profile)
	for _, p := range profiles {
		key := ConfigKey{App: p.App, Point: measurement.Point(p.Config).Key()}
		groups[key] = append(groups[key], p)
	}
	for _, g := range groups {
		sort.SliceStable(g, func(i, j int) bool {
			if g[i].Rep != g[j].Rep {
				return g[i].Rep < g[j].Rep
			}
			return g[i].Rank < g[j].Rank
		})
	}
	return groups
}

// SortedKeys returns the group keys sorted by app name, then by point key,
// for deterministic iteration over GroupByConfig results.
func SortedKeys(groups map[ConfigKey][]*Profile) []ConfigKey {
	keys := make([]ConfigKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].App != keys[j].App {
			return keys[i].App < keys[j].App
		}
		return keys[i].Point < keys[j].Point
	})
	return keys
}
