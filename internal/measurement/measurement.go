// Package measurement defines the empirical data containers Extra-Deep
// models from: execution parameters, measurement points (the paper's
// application configurations P(x₁,…,x_m)), repeated samples per point, and
// experiments grouping series of samples per (callpath, metric).
package measurement

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"extradeep/internal/mathutil"
)

// Parameter describes one execution parameter considered for modeling,
// e.g. the number of MPI ranks or the batch size. Hyper-parameters that
// only steer learning (learning rate, activation function) are deliberately
// not modeled (Section 2.3 of the paper).
type Parameter struct {
	// Name is the human-readable identifier, e.g. "p" or "ranks".
	Name string
}

// Metric identifies what a value measures.
type Metric string

// The metrics Extra-Deep models (Section 2.2 of the paper).
const (
	// MetricTime is runtime in seconds.
	MetricTime Metric = "time"
	// MetricVisits is the number of invocations of a kernel.
	MetricVisits Metric = "visits"
	// MetricBytes is the number of transferred bytes (memory operations).
	MetricBytes Metric = "bytes"
)

// Point is one measurement point P(x₁,…,x_m): a concrete assignment of all
// execution parameters.
type Point []float64

// Key returns a canonical string form usable as a map key, e.g. "(4,256)".
func (p Point) Key() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether two points are identical.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Less orders points lexicographically, used for stable iteration.
func (p Point) Less(q Point) bool {
	for i := 0; i < len(p) && i < len(q); i++ {
		if p[i] < q[i] {
			return true
		}
		if p[i] > q[i] {
			return false
		}
	}
	return len(p) < len(q)
}

// Clone returns an independent copy of the point.
func (p Point) Clone() Point { return append(Point(nil), p...) }

// Sample holds the repeated measurements of one metric at one point.
type Sample struct {
	Point Point
	// Reps are the per-repetition values (already aggregated over steps and
	// ranks by the preprocessing pipeline).
	Reps []float64
}

// Median returns the median over repetitions — the value used for modeling
// (step (3) in Fig. 2 of the paper). It returns 0 and false for an empty
// sample.
func (s Sample) Median() (float64, bool) { return mathutil.Median(s.Reps) }

// Mean returns the mean over repetitions.
func (s Sample) Mean() (float64, bool) { return mathutil.Mean(s.Reps) }

// Series is an ordered set of samples of one metric for one callpath across
// measurement points.
type Series struct {
	Samples []Sample
}

// Add appends the given repetition values to the sample at point p,
// creating the sample if necessary.
func (s *Series) Add(p Point, reps ...float64) {
	s.addOwned(p.Clone(), append([]float64(nil), reps...))
}

// addOwned is Add keeping p and reps instead of copies. An empty point or
// repetition list is stored as nil, as Add's copies of them are.
func (s *Series) addOwned(p Point, reps []float64) {
	for i := range s.Samples {
		if s.Samples[i].Point.Equal(p) {
			s.Samples[i].Reps = append(s.Samples[i].Reps, reps...)
			return
		}
	}
	if len(p) == 0 {
		p = nil
	}
	if len(reps) == 0 {
		reps = nil
	}
	s.Samples = append(s.Samples, Sample{Point: p, Reps: reps})
}

// Sort orders samples lexicographically by point.
func (s *Series) Sort() {
	sort.SliceStable(s.Samples, func(i, j int) bool {
		return s.Samples[i].Point.Less(s.Samples[j].Point)
	})
}

// Len returns the number of distinct measurement points in the series.
func (s *Series) Len() int { return len(s.Samples) }

// Points returns the measurement points of the series in their current order.
func (s *Series) Points() []Point {
	pts := make([]Point, len(s.Samples))
	for i, sm := range s.Samples {
		pts[i] = sm.Point
	}
	return pts
}

// Medians returns the per-point median values in sample order.
// Samples without repetitions contribute 0.
func (s *Series) Medians() []float64 {
	out := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		out[i], _ = sm.Median()
	}
	return out
}

// At returns the sample at point p, or nil when absent.
func (s *Series) At(p Point) *Sample {
	for i := range s.Samples {
		if s.Samples[i].Point.Equal(p) {
			return &s.Samples[i]
		}
	}
	return nil
}

// MinModelingPoints is the minimum number of measurement points per modeled
// parameter required by the modeling approach — fewer points cannot
// distinguish logarithmic, linear and polynomial growth (Section 2.3).
const MinModelingPoints = 5

// ErrTooFewPoints is returned when a series has fewer than
// MinModelingPoints distinct measurement points.
var ErrTooFewPoints = errors.New("measurement: fewer than 5 measurement points")

// Experiment groups all measured series of an application: for every metric
// and callpath the samples across the measured application configurations.
type Experiment struct {
	// Parameters are the modeled execution parameters, in point order.
	Parameters []Parameter
	// Data maps metric → callpath → series.
	Data map[Metric]map[string]*Series
}

// NewExperiment returns an empty experiment over the given parameters.
func NewExperiment(params ...Parameter) *Experiment {
	return &Experiment{
		Parameters: params,
		Data:       make(map[Metric]map[string]*Series),
	}
}

// Add appends repetition values for (metric, callpath) at point p.
func (e *Experiment) Add(m Metric, callpath string, p Point, reps ...float64) error {
	return e.AddOwned(m, callpath, p.Clone(), append([]float64(nil), reps...), 0)
}

// AddOwned is Add for a caller that hands p and reps over: the series
// keeps them instead of copies, so the caller must not use them
// afterwards. A series the call creates reserves room for capHint points.
// Repetitions at a point the series already has are appended to it, as
// Add does.
func (e *Experiment) AddOwned(m Metric, callpath string, p Point, reps []float64, capHint int) error {
	if len(p) != len(e.Parameters) {
		return fmt.Errorf("measurement: point %s has %d values for %d parameters", p.Key(), len(p), len(e.Parameters))
	}
	byPath := e.Data[m]
	if byPath == nil {
		byPath = make(map[string]*Series)
		e.Data[m] = byPath
	}
	s := byPath[callpath]
	if s == nil {
		s = &Series{Samples: make([]Sample, 0, capHint)}
		byPath[callpath] = s
	}
	s.addOwned(p, reps)
	return nil
}

// Series returns the series for (metric, callpath), or nil when absent.
func (e *Experiment) Series(m Metric, callpath string) *Series {
	if byPath := e.Data[m]; byPath != nil {
		return byPath[callpath]
	}
	return nil
}

// Callpaths returns the sorted callpaths that carry data for metric m.
func (e *Experiment) Callpaths(m Metric) []string {
	byPath := e.Data[m]
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Metrics returns the sorted metrics present in the experiment.
func (e *Experiment) Metrics() []Metric {
	ms := make([]Metric, 0, len(e.Data))
	for m := range e.Data {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	return ms
}

// FilterInsufficient removes all series with fewer than min distinct
// measurement points (the kernel filtering step (4) of Fig. 2: kernels not
// observed in at least five configurations are not modeled). It returns the
// number of series removed.
func (e *Experiment) FilterInsufficient(min int) int {
	removed := 0
	for m, byPath := range e.Data {
		for path, s := range byPath {
			if s.Len() < min {
				delete(byPath, path)
				removed++
			}
		}
		if len(byPath) == 0 {
			delete(e.Data, m)
		}
	}
	return removed
}
