package lint

import (
	"go/ast"
	"strings"
)

// Hot-path designation: the perf analyzer family (allocloop, prealloc)
// reports only inside functions designated *hot* — the fit engine's
// inner loops, where a single stray allocation multiplies by hypotheses
// × folds × tasks. Two designation channels exist, mirroring wallclock's
// policed-package list but at function granularity:
//
//   - //edlint:hotpath as (part of) a function's doc comment marks that
//     one declaration hot, wherever it lives. Optional trailing text is
//     a free-form reason. A hotpath comment that is not the doc comment
//     of a function declaration is itself a diagnostic (reported by
//     allocloop), so a directive drifting away from its function fails
//     the lint instead of silently policing nothing.
//   - hotPathDefaults below names the policed core: the functions every
//     fit task funnels through. An entry matches by package-path suffix
//     plus the function's display name ("fitContext.solveFull"), with a
//     "Recv.*" wildcard covering every method of a receiver type.
//
// Hotness deliberately does NOT propagate to transitive callees, and a
// call is never a site: a hot loop calling a cold allocating helper is
// not reported. To police a helper, designate it hot; its body then
// reports its own allocations exactly once.

// hotPathDirective is the function-level hot marker, written as
// //edlint:hotpath [reason] in a declaration's doc comment.
const hotPathDirective = "edlint:hotpath"

// hotPathDefault designates hot functions by (package suffix, display
// name) pattern. A pattern "T.*" matches every method of receiver T; any
// other pattern matches the display name exactly.
type hotPathDefault struct {
	pkg     string
	pattern string
}

// hotPathDefaults is the policed default set: the design-matrix engine's
// per-hypothesis/per-fold paths and the worker plumbing that drives
// them. Every function here runs O(hypotheses × folds) or more per fit
// task, so an allocation inside is never noise.
var hotPathDefaults = []hotPathDefault{
	// The fit engine context: column prep, per-fold solves, selection.
	{"internal/modeling", "fitContext.*"},
	{"internal/modeling", "modeling.fitValidated"},
	{"internal/modeling", "modeling.newFitContext"},
	{"internal/modeling", "modeling.sharedBasis"},
	{"internal/modeling", "modeling.basisSignature"},
	// The design records: built once per point set for every single-shape
	// hypothesis, and per task for every two-shape combination.
	{"internal/modeling", "design.*"},
	{"internal/modeling", "designScratch.*"},
	{"internal/modeling", "modeling.normalEquations"},
	{"internal/modeling", "modeling.predictRow"},
	// The sparse hypothesis search and the pooled slabs it builds each
	// task's hypothesis space into.
	{"internal/modeling", "modeling.sparseSearch"},
	{"internal/modeling", "hypothesisSpace.*"},
	// Basis-column evaluation: every factor/term touch of every fit.
	{"internal/pmnf", "pmnf.FactorColumn"},
	{"internal/pmnf", "pmnf.TermProduct"},
	{"internal/pmnf", "Factor.Eval"},
	{"internal/pmnf", "Term.Eval"},
	{"internal/pmnf", "Term.EvalBasis"},
	{"internal/pmnf", "Function.Eval"},
	{"internal/pmnf", "Function.EvalAt"},
	// Fig. 2's aggregation: the per-profile summary (one pass over every
	// event of every profile, at ingest or in the Aggregate stage) and
	// the merge through the per-configuration kernel table, both in
	// reused scratch.
	{"internal/trace", "Summarizer.Summarize"},
	{"internal/trace", "Summarizer.keepSteps"},
	{"internal/aggregate", "scratch.mergeRep"},
	{"internal/aggregate", "scratch.assemble"},
	// The worker pool's fan-out and the per-task fit driver.
	{"internal/pipeline", "pipeline.ForEach"},
	{"internal/pipeline", "Pipeline.fitOne"},
	// The solver each fold lands in, and the fit-quality scorers called
	// once per hypothesis.
	{"internal/mathutil", "mathutil.SolveLinearSystem"},
	{"internal/mathutil", "Elimination.*"},
	{"internal/mathutil", "mathutil.SMAPE"},
	{"internal/mathutil", "mathutil.RSS"},
}

// hotByDefault reports whether the (unit path, display name) pair is in
// the policed default set.
func hotByDefault(path, display string) bool {
	for _, d := range hotPathDefaults {
		if d.matches(path, display) {
			return true
		}
	}
	return false
}

// matches reports whether the pattern designates the declaration named
// display in the unit at path. The test-unit suffix is ignored so
// in-package test units police the same declarations.
func (d hotPathDefault) matches(path, display string) bool {
	if !strings.HasSuffix(strings.TrimSuffix(path, "_test"), d.pkg) {
		return false
	}
	if recv, ok := strings.CutSuffix(d.pattern, ".*"); ok {
		return strings.HasPrefix(display, recv+".")
	}
	return display == d.pattern
}

// hotByDirective reports whether fd's doc comment carries the
// //edlint:hotpath marker.
func hotByDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, "//"+hotPathDirective) {
			return true
		}
	}
	return false
}

// isHotFunc reports whether the declaration is a designated hot path in
// this analysis unit, by directive or by default set.
func isHotFunc(pass *Pass, fd *ast.FuncDecl) bool {
	return hotByDirective(fd) || hotByDefault(pass.Path, funcDisplay(pass, fd))
}

// reportStrayHotpath flags //edlint:hotpath comments that are not the
// doc comment of a function declaration — they designate nothing and
// usually mean the directive drifted away from its function. Reported
// under allocloop (the family's flagship) so the ordinary suppression
// machinery applies.
func reportStrayHotpath(pass *Pass, file *ast.File) {
	anchored := make(map[*ast.Comment]bool)
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if ok && fd.Doc != nil {
			for _, c := range fd.Doc.List {
				anchored[c] = true
			}
		}
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//"+hotPathDirective) && !anchored[c] {
				pass.Reportf(c.Pos(),
					"stray //edlint:hotpath directive: it must be (part of) a function declaration's doc comment to designate that function hot")
			}
		}
	}
}
