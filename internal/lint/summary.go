package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is edlint v3's interprocedural summary pass. For every
// function declaration of the module it computes a FuncSummary — the
// wall-clock and math/rand effects, each carrying a cross-function trace
// to its root cause — bottom-up over the call graph's strongly connected
// components, with a fixpoint inside each component so recursion
// converges. The dataflow core (dataflow.go) consumes the table for
// wallclock: a call to a function whose summary says "reads the wall
// clock three frames down" becomes a taint source at the call site, and
// the finding's message renders the whole chain
// (modeling.Label ← helpers.StampLabel ← helpers.now ← time.Now).
//
// Sanctioned sources stay sanctioned interprocedurally: a nondeterminism
// source covered by an //edlint:ignore wallclock directive is excluded
// from its function's summary, so the suppression at the source silences
// the laundered findings at every caller too (the propcheck engine's
// ignore-file wallclock directive is the canonical case: its seeded
// math/rand draws must not taint every generator that calls through
// propcheck.Rand).

// EffectTrace is the call chain from a summarized function down to the
// root cause of one effect. The first element is the summarized
// function's direct culprit (a callee's display name or a source
// description like "time.Now" or "range over m"); the last element is
// always the source itself.
type EffectTrace struct {
	Chain []string
}

// maxTraceLen bounds rendered chains; deeper chains elide the middle.
const maxTraceLen = 8

// render joins the chain for messages, prefixed with the given head
// (usually the reporting function and the called function).
func (e *EffectTrace) render(head ...string) string {
	chain := append(append([]string(nil), head...), e.Chain...)
	if len(chain) > maxTraceLen {
		elided := append([]string(nil), chain[:maxTraceLen-2]...)
		elided = append(elided, "…", chain[len(chain)-1])
		chain = elided
	}
	return strings.Join(chain, " ← ")
}

// extend builds a caller's trace from a callee's: the callee's display
// name followed by the callee's own chain.
func (e *EffectTrace) extend(callee string) *EffectTrace {
	return &EffectTrace{Chain: append([]string{callee}, e.Chain...)}
}

// FuncSummary is the interprocedural effect summary of one function
// declaration. A nil trace pointer means "this function provably does
// not have the effect through any statically resolved call chain".
type FuncSummary struct {
	// Key is the function's cross-unit identity (types.Func.FullName).
	Key string
	// Display is the compact trace rendering ("report.Write").
	Display string
	// Pkg is the import path of the analysis unit declaring the function.
	Pkg string

	// ReadsClock: calls time.Now/Since/Until, directly or transitively.
	ReadsClock *EffectTrace
	// ReadsRand: draws from math/rand (v1 or v2), directly or transitively.
	ReadsRand *EffectTrace
}

// SummaryTable holds every function summary of one module, keyed by
// types.Func.FullName.
type SummaryTable struct {
	funcs map[string]*FuncSummary
}

// LookupCall resolves the summary of a call expression's static callee,
// or nil when the callee has no body in the module (stdlib, interface
// method, function value).
func (t *SummaryTable) LookupCall(info *types.Info, call *ast.CallExpr) *FuncSummary {
	if t == nil {
		return nil
	}
	key, ok := calleeKey(info, call)
	if !ok {
		return nil
	}
	return t.funcs[key]
}

// Len reports the number of summarized functions.
func (t *SummaryTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.funcs)
}

// summarizer carries the module-wide state of one summary computation.
type summarizer struct {
	mod   *Module
	graph *callGraph
	table *SummaryTable
	// dirs are the module's ignore directives; a source under a wallclock
	// directive is excluded from summaries, so the suppression at the
	// source silences every laundered caller-side finding too.
	dirs []directive
}

// Summarize computes the interprocedural summary table for a loaded
// module: intrinsic effects per function, then bottom-up propagation over
// the call graph's SCCs with a per-component fixpoint.
func Summarize(mod *Module) *SummaryTable {
	s := &summarizer{
		mod:   mod,
		graph: buildCallGraph(mod),
		table: &SummaryTable{funcs: make(map[string]*FuncSummary)},
	}
	known := make(map[string]bool)
	for _, a := range DefaultAnalyzers() {
		known[a.Name] = true
	}
	for _, pkg := range mod.Pkgs {
		dirs, _ := collectDirectives(mod.Fset, pkg.Files, known)
		s.dirs = append(s.dirs, dirs...)
	}
	for _, comp := range s.graph.sccs() {
		// Seed the component with empty summaries so in-component calls
		// resolve during the fixpoint instead of reading nil.
		for _, key := range comp {
			n := s.graph.nodes[key]
			s.table.funcs[key] = &FuncSummary{
				Key:     key,
				Display: n.display,
				Pkg:     n.pkg.Path,
			}
		}
		for {
			changed := false
			for _, key := range comp {
				if s.recompute(s.graph.nodes[key]) {
					changed = true
				}
			}
			if !changed || len(comp) == 1 && !selfCalls(s.graph.nodes[comp[0]]) {
				break
			}
		}
	}
	return s.table
}

// selfCalls reports whether a node calls itself (a one-node SCC needs a
// fixpoint only when it is directly recursive).
func selfCalls(n *funcNode) bool {
	for _, c := range n.callees {
		if c == n.key {
			return true
		}
	}
	return false
}

// sanctioned reports whether a wallclock ignore directive covers pos.
func (s *summarizer) sanctioned(pos token.Pos) bool {
	p := s.mod.Fset.Position(pos)
	for _, d := range s.dirs {
		if d.analyzer == "wallclock" && d.file == p.Filename && p.Line >= d.from && p.Line <= d.to {
			return true
		}
	}
	return false
}

// recompute re-derives one function's summary from its body and the
// current table, merging monotonically (an effect once set keeps its
// first trace, which makes the fixpoint deterministic). It reports
// whether any effect was newly set.
func (s *summarizer) recompute(n *funcNode) bool {
	sum := s.table.funcs[n.key]
	pass := &Pass{
		Analyzer:   &Analyzer{Name: "summary"},
		Fset:       s.mod.Fset,
		Files:      n.pkg.Files,
		Pkg:        n.pkg.Types,
		Info:       n.pkg.Info,
		Path:       n.pkg.Path,
		IsTestUnit: n.pkg.IsTest,
	}
	changed := false
	set := func(dst **EffectTrace, tr *EffectTrace) {
		if *dst == nil && tr != nil {
			*dst = tr
			changed = true
		}
	}

	set(&sum.ReadsClock, s.clockTrace(pass, n, srcTime))
	set(&sum.ReadsRand, s.clockTrace(pass, n, srcRand))
	return changed
}

// clockTrace finds the earliest wall-clock or rand effect of fd: a direct
// source call, or a call to a summarized function carrying the effect.
// Sources covered by a wallclock suppression are sanctioned and skipped.
func (s *summarizer) clockTrace(pass *Pass, n *funcNode, kind sourceKind) *EffectTrace {
	var best *EffectTrace
	var bestPos token.Pos = -1
	consider := func(p token.Pos, tr *EffectTrace) {
		if tr != nil && (bestPos < 0 || p < bestPos) {
			best, bestPos = tr, p
		}
	}
	ast.Inspect(n.decl, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if src := nondetCallSource(pass, call); src != nil && src.kind == kind {
			if !s.sanctioned(src.pos) {
				consider(src.pos, &EffectTrace{Chain: []string{src.desc}})
			}
			return true
		}
		if cs := s.table.LookupCall(pass.Info, call); cs != nil {
			var eff *EffectTrace
			if kind == srcTime {
				eff = cs.ReadsClock
			} else {
				eff = cs.ReadsRand
			}
			if eff != nil && !s.sanctioned(call.Pos()) {
				consider(call.Pos(), eff.extend(cs.Display))
			}
		}
		return true
	})
	return best
}
