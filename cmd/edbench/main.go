// Command edbench regenerates the paper's evaluation artifacts (every
// table and figure of Section 4 plus the Sections 2–3 case study) on the
// simulated substrate, prints the report tables, and optionally renders
// the figures as SVG files.
//
// Usage:
//
//	edbench -exp all
//	edbench -exp casestudy,figure8 -seed 42
//	edbench -exp all -plots out/
//
// Available experiments: casestudy, figure3, figure4b, figure5, figure6,
// figure7, figure8, table2, summary, all.
//
// A failing experiment no longer aborts the campaign: its error is
// reported, the remaining experiments still run, and the process exits
// with the partial-success code.
//
// Exit codes:
//
//	0 — every requested experiment succeeded
//	1 — every requested experiment failed, or an I/O error
//	2 — flag or usage errors (unknown experiment)
//	4 — partial success: some experiments failed, the rest completed
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"extradeep/internal/experiments"
	"extradeep/internal/pipeline"
	"extradeep/internal/report"
)

// Process exit codes; see the command doc comment.
const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
	exitPartial = 4
)

// chart is anything that can render itself as SVG.
type chart interface {
	SVG() (string, error)
}

// teeObserver forwards stage events to two observers (the collector that
// feeds the report sections and the optional -timings log).
type teeObserver struct {
	a, b pipeline.Observer
}

func (t teeObserver) StageStart(s pipeline.Stage)      { t.a.StageStart(s); t.b.StageStart(s) }
func (t teeObserver) StageDone(st pipeline.StageStats) { t.a.StageDone(st); t.b.StageDone(st) }

// outcome is one experiment's artifacts as produced by its runner.
type outcome struct {
	text   string
	charts map[string]chart // file stem → chart
}

// renderer pairs an experiment name with its runner.
type renderer struct {
	name string
	run  func(seed int64) (outcome, error)
}

func runners() []renderer {
	return []renderer{
		{"casestudy", func(seed int64) (outcome, error) {
			r, err := experiments.CaseStudy(seed)
			if err != nil {
				return outcome{}, err
			}
			return outcome{text: r.Render()}, nil
		}},
		{"figure3", func(seed int64) (outcome, error) {
			r, err := experiments.Figure3(seed)
			if err != nil {
				return outcome{}, err
			}
			return outcome{text: r.Render(), charts: map[string]chart{"figure3": r.Chart()}}, nil
		}},
		{"figure4b", func(seed int64) (outcome, error) {
			r, err := experiments.Figure4b(seed)
			if err != nil {
				return outcome{}, err
			}
			timeChart, costChart := r.Charts()
			return outcome{text: r.Render(), charts: map[string]chart{
				"figure4b_time": timeChart, "figure4b_cost": costChart,
			}}, nil
		}},
		{"figure5", func(seed int64) (outcome, error) {
			r, err := experiments.Figure5(seed)
			if err != nil {
				return outcome{}, err
			}
			return outcome{text: r.Render(), charts: map[string]chart{"figure5": r.Chart()}}, nil
		}},
		{"figure6", func(seed int64) (outcome, error) {
			r, err := experiments.Figure6(seed)
			if err != nil {
				return outcome{}, err
			}
			return outcome{text: r.Render(), charts: map[string]chart{"figure6": r.Chart()}}, nil
		}},
		{"figure7", func(seed int64) (outcome, error) {
			r, err := experiments.Figure7(seed)
			if err != nil {
				return outcome{}, err
			}
			return outcome{text: r.Render(), charts: map[string]chart{"figure7": r.Chart()}}, nil
		}},
		{"figure8", func(int64) (outcome, error) {
			r, err := experiments.Figure8()
			if err != nil {
				return outcome{}, err
			}
			return outcome{text: r.Render(), charts: map[string]chart{"figure8": r.Chart()}}, nil
		}},
		{"table2", func(seed int64) (outcome, error) {
			r, err := experiments.Table2(seed)
			if err != nil {
				return outcome{}, err
			}
			return outcome{text: r.Render()}, nil
		}},
		{"summary", func(seed int64) (outcome, error) {
			r, err := experiments.Summary(seed)
			if err != nil {
				return outcome{}, err
			}
			return outcome{text: r.Render()}, nil
		}},
		{"baselines", func(seed int64) (outcome, error) {
			r, err := experiments.Baselines(seed, "cifar10")
			if err != nil {
				return outcome{}, err
			}
			return outcome{text: r.Render()}, nil
		}},
		{"scalability", func(seed int64) (outcome, error) {
			weak, err := experiments.Scalability(seed, "cifar10", true)
			if err != nil {
				return outcome{}, err
			}
			strong, err := experiments.Scalability(seed, "imagenet", false)
			if err != nil {
				return outcome{}, err
			}
			return outcome{
				text: weak.Render() + "\n" + strong.Render(),
				charts: map[string]chart{
					"scalability_weak":   weak.Chart(),
					"scalability_strong": strong.Chart(),
				},
			}, nil
		}},
	}
}

// renderSVGs renders every chart of an outcome, keyed by file stem.
func renderSVGs(charts map[string]chart) (map[string]string, error) {
	svgs := make(map[string]string, len(charts))
	for stem, c := range charts {
		svg, err := c.SVG()
		if err != nil {
			return nil, fmt.Errorf("rendering %s: %w", stem, err)
		}
		svgs[stem] = svg
	}
	return svgs, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sayf and sayln print best-effort to the chosen writer; a failed
// diagnostic write has no sensible recovery in a CLI, so the error is
// deliberately discarded.
func sayf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func sayln(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

// run executes the command and returns its process exit code; tests drive
// it directly with buffers.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "all", "comma-separated experiments to run (or 'all')")
	seed := fs.Int64("seed", 7, "base random seed for the simulated measurements")
	plotsDir := fs.String("plots", "", "write the figures as SVG files into this directory")
	htmlPath := fs.String("html", "", "write a self-contained HTML report to this file")
	timings := fs.Bool("timings", false, "print per-stage observer lines to stderr")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	wanted := make(map[string]bool)
	all := *expFlag == "all"
	for _, name := range strings.Split(*expFlag, ",") {
		wanted[strings.TrimSpace(name)] = true
	}

	known := runners()
	if !all {
		wantedNames := make([]string, 0, len(wanted))
		for name := range wanted {
			wantedNames = append(wantedNames, name)
		}
		sort.Strings(wantedNames)
		for _, name := range wantedNames {
			found := false
			for _, r := range known {
				if r.name == name {
					found = true
				}
			}
			if !found && name != "all" {
				sayf(stderr, "edbench: unknown experiment %q\n", name)
				return exitUsage
			}
		}
	}
	if *plotsDir != "" {
		if err := os.MkdirAll(*plotsDir, 0o755); err != nil {
			sayf(stderr, "edbench: %v\n", err)
			return exitFailure
		}
	}
	htmlReport := &report.Report{
		Title:    "Extra-Deep reproduction report",
		Subtitle: fmt.Sprintf("simulated substrate, seed %d — see EXPERIMENTS.md for paper-vs-measured notes", *seed),
	}
	// Each experiment runs as one observed pipeline stage: the collector
	// supplies the elapsed time for the report section, and -timings
	// mirrors the same events to stderr — the sequencing/timing contract
	// is the pipeline's, not re-implemented here.
	collector := &pipeline.Collector{}
	ran, failed := 0, []string{}
	for _, r := range known {
		if !all && !wanted[r.name] {
			continue
		}
		ran++
		var text string
		var svgs map[string]string
		obs := pipeline.Observer(collector)
		if *timings {
			obs = teeObserver{collector, &pipeline.LogObserver{W: stderr}}
		}
		err := pipeline.Observe(obs, pipeline.Stage(r.name), func() (pipeline.Counters, error) {
			out, err := r.run(*seed)
			if err != nil {
				return nil, err
			}
			text = out.text
			svgs, err = renderSVGs(out.charts)
			return nil, err
		})
		if err != nil {
			// Graceful degradation: name the failure, keep the campaign
			// going, and report partial success at the end.
			sayf(stderr, "edbench: %s: %v\n", r.name, err)
			failed = append(failed, r.name)
			continue
		}
		sayln(stdout, text)
		elapsed := collector.Last().Duration
		section := report.Section{Title: r.name, Text: text, Elapsed: elapsed}
		stems := make([]string, 0, len(svgs))
		for stem := range svgs {
			stems = append(stems, stem)
		}
		sort.Strings(stems)
		for _, stem := range stems {
			svg := svgs[stem]
			section.SVGs = append(section.SVGs, svg)
			if *plotsDir != "" {
				path := filepath.Join(*plotsDir, stem+".svg")
				if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
					sayf(stderr, "edbench: %v\n", err)
					return exitFailure
				}
				sayf(stdout, "[wrote %s]\n", path)
			}
		}
		htmlReport.Add(section)
		sayf(stdout, "[%s completed in %v]\n\n", r.name, elapsed.Round(time.Millisecond))
	}
	if *htmlPath != "" {
		html, err := htmlReport.HTML()
		if err != nil {
			sayf(stderr, "edbench: %v\n", err)
			return exitFailure
		}
		if err := os.WriteFile(*htmlPath, []byte(html), 0o644); err != nil {
			sayf(stderr, "edbench: %v\n", err)
			return exitFailure
		}
		sayf(stdout, "[wrote %s]\n", *htmlPath)
	}
	if len(failed) > 0 {
		sayf(stderr, "edbench: %d of %d experiments failed: %s\n",
			len(failed), ran, strings.Join(failed, ", "))
		if len(failed) == ran {
			return exitFailure
		}
		return exitPartial
	}
	return exitOK
}
