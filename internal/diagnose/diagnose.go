// Package diagnose checks a set of profiles for the measurement-quality
// problems that silently ruin empirical models: missing ranks or
// repetitions, inconsistent step counts across ranks, absent warm-up
// epochs, kernels observed in too few configurations to be modeled
// (they will be filtered, Fig. 2 step (4)), excessive run-to-run
// variation, too few configurations for modeling at all, and semantic
// corruption — NaN/Inf or negative event metric values that decode
// without error but would poison the aggregation medians. It is the
// pre-flight check of the analysis pipeline.
package diagnose

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"extradeep/internal/aggregate"
	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/trace"
)

// Severity grades a finding.
type Severity int

// Severity levels.
const (
	// Info findings are observations, not problems.
	Info Severity = iota
	// Warning findings degrade model quality.
	Warning
	// Error findings prevent modeling.
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return "unknown"
	}
}

// Finding is one diagnostic result.
type Finding struct {
	Severity Severity
	// Subject locates the finding (configuration, kernel, …).
	Subject string
	// Message describes the problem and its consequence.
	Message string
}

// Report is the complete diagnosis of a profile set.
type Report struct {
	Findings []Finding
	// Configurations is the number of distinct measurement points seen.
	Configurations int
	// Profiles is the number of profile files inspected.
	Profiles int
}

// Errors returns the findings of Error severity.
func (r *Report) Errors() []Finding { return r.bySeverity(Error) }

// Warnings returns the findings of Warning severity.
func (r *Report) Warnings() []Finding { return r.bySeverity(Warning) }

func (r *Report) bySeverity(s Severity) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == s {
			out = append(out, f)
		}
	}
	return out
}

// OK reports whether modeling can proceed (no Error findings).
func (r *Report) OK() bool { return len(r.Errors()) == 0 }

// add appends a finding.
func (r *Report) add(sev Severity, subject, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{
		Severity: sev, Subject: subject, Message: fmt.Sprintf(format, args...),
	})
}

// variationWarn is the run-to-run variation above which a kernel warns.
// The paper calls 15%+ common and 17.4% its JURECA average, so only
// clearly pathological spread warns.
const variationWarn = 0.25

// corruptEventMetrics scans a trace for semantically corrupt event
// metrics — NaN/Inf start, duration or byte values, or negative durations
// and byte counts — which decode without error (e.g. from the CSV
// interchange format or an in-memory producer) yet would silently poison
// the aggregation medians. It returns the number of corrupt events and a
// description of the first one.
func corruptEventMetrics(tr *trace.Trace) (count int, first string) {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	for i, e := range tr.Events {
		var reason string
		switch {
		case bad(e.Start) || bad(e.Duration) || bad(e.Bytes):
			reason = fmt.Sprintf("non-finite metric (start %v, duration %v, bytes %v)", e.Start, e.Duration, e.Bytes)
		case e.Duration < 0:
			reason = fmt.Sprintf("negative duration %v", e.Duration)
		case e.Bytes < 0:
			reason = fmt.Sprintf("negative byte count %v", e.Bytes)
		default:
			continue
		}
		count++
		if first == "" {
			first = fmt.Sprintf("event %d (%s): %s", i, e.Name, reason)
		}
	}
	return count, first
}

// Check diagnoses a profile set.
func Check(profiles []*profile.Profile) *Report {
	rep := &Report{Profiles: len(profiles)}
	if len(profiles) == 0 {
		rep.add(Error, "profiles", "no profiles to analyze")
		return rep
	}

	groups := profile.GroupByConfig(profiles)
	keys := profile.SortedKeys(groups)
	rep.Configurations = len(keys)

	if len(keys) < measurement.MinModelingPoints {
		rep.add(Error, "configurations",
			"only %d measured configuration(s); modeling needs at least %d (the paper's minimum to separate logarithmic, linear and polynomial growth)",
			len(keys), measurement.MinModelingPoints)
	}

	apps := map[string]bool{}
	for _, k := range keys {
		apps[k.App] = true
	}
	if len(apps) > 1 {
		names := make([]string, 0, len(apps))
		for a := range apps {
			names = append(names, a)
		}
		sort.Strings(names)
		rep.add(Error, "profiles", "profiles mix applications: %s", strings.Join(names, ", "))
	}

	kernelConfigs := map[string]int{}

	for _, key := range keys {
		group := groups[key]
		subject := fmt.Sprintf("%s %s", key.App, key.Point)

		// Rank/repetition completeness.
		byRep := map[int]map[int]bool{}
		maxRank := -1
		for _, p := range group {
			if byRep[p.Rep] == nil {
				byRep[p.Rep] = map[int]bool{}
			}
			if byRep[p.Rep][p.Rank] {
				rep.add(Warning, subject, "duplicate profile for repetition %d rank %d", p.Rep, p.Rank)
			}
			byRep[p.Rep][p.Rank] = true
			if p.Rank > maxRank {
				maxRank = p.Rank
			}
		}
		if len(byRep) == 1 {
			rep.add(Warning, subject, "single repetition: run-to-run variation cannot be assessed (the paper uses 5)")
		}
		repIdxs := make([]int, 0, len(byRep))
		for repIdx := range byRep {
			repIdxs = append(repIdxs, repIdx)
		}
		sort.Ints(repIdxs)
		for _, repIdx := range repIdxs {
			ranks := byRep[repIdx]
			for r := 0; r <= maxRank; r++ {
				if !ranks[r] {
					rep.add(Warning, subject, "repetition %d is missing rank %d (ranks 0..%d seen elsewhere)", repIdx, r, maxRank)
				}
			}
		}

		// Per-profile structure.
		stepCounts := map[int]bool{}
		for _, p := range group {
			tr := &p.Trace
			if n, first := corruptEventMetrics(tr); n > 0 {
				rep.add(Error, subject,
					"rank %d rep %d has %d event(s) with corrupt metric values (first: %s) — NaN/Inf or negative measurements would poison every median downstream",
					p.Rank, p.Rep, n, first)
			}
			if len(tr.Epochs) == 0 {
				rep.add(Error, subject, "rank %d rep %d has no epoch marks — instrumentation missing?", p.Rank, p.Rep)
				continue
			}
			if len(tr.Epochs) < 2 {
				rep.add(Warning, subject, "rank %d rep %d profiled a single epoch: no warm-up epoch to discard (first-epoch initialization will distort the medians)", p.Rank, p.Rep)
			}
			train := tr.StepsOfPhase(trace.PhaseTrain)
			if len(train) == 0 {
				rep.add(Error, subject, "rank %d rep %d has no training steps", p.Rank, p.Rep)
				continue
			}
			stepCounts[len(train)] = true
			if len(tr.Events) == 0 {
				rep.add(Error, subject, "rank %d rep %d has step marks but no events", p.Rank, p.Rep)
			}
		}
		if len(stepCounts) > 1 {
			var counts []int
			for c := range stepCounts {
				counts = append(counts, c)
			}
			sort.Ints(counts)
			rep.add(Warning, subject, "training-step counts differ across ranks/repetitions: %v — medians will mix different step sets", counts)
		}

		// Aggregate to assess variation and kernel coverage.
		agg, err := aggregate.Aggregate(group, aggregate.DefaultOptions())
		if err != nil {
			rep.add(Error, subject, "aggregation failed: %v", err)
			continue
		}
		for _, path := range sortedPaths(agg.Kernels) {
			k := agg.Kernels[path]
			kernelConfigs[path]++
			perRep := k.PerRep[measurement.MetricTime]
			vals := make([]float64, 0, len(perRep))
			for _, sv := range perRep {
				vals = append(vals, sv.Train+sv.Validation)
			}
			if cv, ok := mathutil.CoefficientOfVariation(vals); ok && cv > variationWarn {
				rep.add(Warning, subject,
					"kernel %s varies %.0f%% run-to-run (threshold %.0f%%): its model will carry that uncertainty",
					path, cv*100, variationWarn*100)
			}
		}
		if k := len(agg.Kernels); k > 0 {
			rep.add(Info, subject, "%d kernels, %d repetition(s), %d training steps profiled",
				k, agg.Reps, agg.TrainSteps)
		}
	}

	// Kernel coverage across configurations (Fig. 2 step (4)).
	var thin []string
	for path, n := range kernelConfigs {
		if n < measurement.MinModelingPoints && len(keys) >= measurement.MinModelingPoints {
			thin = append(thin, path)
		}
	}
	sort.Strings(thin)
	for _, path := range thin {
		rep.add(Info, path, "observed in only %d of %d configurations: will be filtered before modeling",
			kernelConfigs[path], len(keys))
	}
	return rep
}

// sortedPaths returns m's keys in sorted order, so findings are emitted
// deterministically regardless of map iteration order.
func sortedPaths[V any](m map[string]V) []string {
	paths := make([]string, 0, len(m))
	for path := range m {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// Render formats the report for terminal output.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diagnosis: %d profiles, %d configurations — %d error(s), %d warning(s)\n",
		r.Profiles, r.Configurations, len(r.Errors()), len(r.Warnings()))
	for _, f := range r.Findings {
		if f.Severity == Info {
			continue
		}
		fmt.Fprintf(&b, "  [%s] %s: %s\n", f.Severity, f.Subject, f.Message)
	}
	if r.OK() {
		b.WriteString("  modeling can proceed\n")
	} else {
		b.WriteString("  modeling blocked — fix the errors above\n")
	}
	return b.String()
}
