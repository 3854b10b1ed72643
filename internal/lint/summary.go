package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is edlint v3's interprocedural summary pass. For every
// function declaration of the module it computes a FuncSummary — a small
// set of effect bits, each carrying a cross-function trace to its root
// cause — bottom-up over the call graph's strongly connected components,
// with a fixpoint inside each component so recursion converges. The
// dataflow core (dataflow.go), the flow analyzers (maporder, wallclock,
// sendguard) and the perf family consume the table: a call to a function
// whose summary says "reads the wall clock three frames down" or
// "returns a slice in map-iteration order" becomes a taint source at the
// call site, and the finding's message renders the whole chain
// (report.Write ← formatRows ← bucketByNode ← range over m).
//
// Sanctioned sources stay sanctioned interprocedurally: a nondeterminism
// source covered by an //edlint:ignore directive for the relevant
// analyzer is excluded from its function's summary, so the suppression at
// the source silences the laundered findings at every caller too (the
// propcheck engine's ignore-file wallclock directive is the canonical
// case: its seeded math/rand draws must not taint every generator that
// calls through propcheck.Rand).

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
	// Hot marks a designated hot path (//edlint:hotpath directive or the
	// policed default set). Hot callees report their own bodies, so the
	// perf analyzers skip call-site findings into them — the same
	// single-report contract wallclock keeps across policed packages.
	Hot bool

	// ReadsClock: calls time.Now/Since/Until, directly or transitively.
	ReadsClock *EffectTrace
	// ReadsRand: draws from math/rand (v1 or v2), directly or transitively.
	ReadsRand *EffectTrace
	// OrderedReturn: returns a slice or array whose element order descends
	// from map iteration and is never sorted before the return.
	OrderedReturn *EffectTrace
	// BareSendParams maps a parameter index to a trace when the function
	// performs a channel send outside any select on that parameter
	// (directly or by passing it along to a callee that does).
	BareSendParams map[int]*EffectTrace

	// AllocatesPerCall: performs a heap allocation (make/new, escaping
	// composite literal, or an allocating stdlib intrinsic) on some path
	// of every call, directly or transitively. Amortized idioms
	// (grow-to-cap loops, cap-guarded makes, [:0] reuse) and cold exit
	// paths are excluded — see allocflow.go.
	AllocatesPerCall *EffectTrace
	// GrowsSlice: performs a non-amortized append that may reallocate,
	// directly or transitively.
	GrowsSlice *EffectTrace
	// CapturesByClosure: builds a variable-capturing function literal
	// (a heap-allocated closure), directly or transitively.
	CapturesByClosure *EffectTrace
}

// SummaryTable holds every function summary of one module, keyed by
// types.Func.FullName.
type SummaryTable struct {
	funcs map[string]*FuncSummary
}

// Lookup resolves the summary for a called function object, or nil when
// the function has no body in the module (stdlib, interface method,
// function value).
func (t *SummaryTable) Lookup(fn *types.Func) *FuncSummary {
	if t == nil || fn == nil {
		return nil
	}
	return t.funcs[fn.FullName()]
}

// LookupCall resolves the summary of a call expression's static callee.
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
	// sanction answers "is this analyzer suppressed at this position?";
	// sanctioned sources are excluded from summaries so a suppression at
	// the source silences every laundered caller-side finding too.
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
				Hot:     hotByDirective(n.decl) || hotByDefault(n.pkg.Path, n.display),
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

// sanctioned reports whether an ignore directive for the analyzer covers
// the position.
func (s *summarizer) sanctioned(analyzer string, p token.Position) bool {
	for _, d := range s.dirs {
		if d.analyzer == analyzer && d.file == p.Filename && p.Line >= d.from && p.Line <= d.to {
			return true
		}
	}
	return false
}

// sanctionedPos resolves pos and applies sanctioned.
func (s *summarizer) sanctionedPos(analyzer string, pos token.Pos) bool {
	return s.sanctioned(analyzer, s.mod.Fset.Position(pos))
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
		Sums:       s.table,
	}
	changed := false
	set := func(dst **EffectTrace, tr *EffectTrace) {
		if *dst == nil && tr != nil {
			*dst = tr
			changed = true
		}
	}

	set(&sum.ReadsClock, s.clockTrace(pass, n, srcTime, "wallclock"))
	set(&sum.ReadsRand, s.clockTrace(pass, n, srcRand, "wallclock"))
	set(&sum.OrderedReturn, s.orderedReturnTrace(pass, n))
	alloc, grow, closure := s.allocEffects(pass, n)
	set(&sum.AllocatesPerCall, alloc)
	set(&sum.GrowsSlice, grow)
	set(&sum.CapturesByClosure, closure)
	if s.mergeBareSends(pass, n, sum) {
		changed = true
	}
	return changed
}

// clockTrace finds the earliest wall-clock or rand effect of fd: a direct
// source call, or a call to a summarized function carrying the effect.
// Sources covered by a wallclock suppression are sanctioned and skipped.
func (s *summarizer) clockTrace(pass *Pass, n *funcNode, kind sourceKind, analyzer string) *EffectTrace {
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
			if !s.sanctionedPos(analyzer, src.pos) {
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
			if eff != nil && !s.sanctionedPos(analyzer, call.Pos()) {
				consider(call.Pos(), eff.extend(cs.Display))
			}
		}
		return true
	})
	return best
}

// orderedReturnTrace reports a return of a slice/array whose element
// order descends from map iteration (directly, or via a callee whose
// summary says so) with no sort between the accumulation and the return.
func (s *summarizer) orderedReturnTrace(pass *Pass, n *funcNode) *EffectTrace {
	flows := taintFunc(pass, n.decl)
	var found *EffectTrace
	ast.Inspect(n.decl, func(node ast.Node) bool {
		if found != nil {
			return false
		}
		ret, ok := node.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			src := flows.exprSource(res)
			if src == nil || !src.mapOrdered() {
				continue
			}
			t := pass.TypeOf(res)
			if t == nil || !isSliceOrArray(t) {
				continue
			}
			if s.sanctionedPos("maporder", src.pos) {
				continue
			}
			// The append-then-sort idiom sanitizes: any sort/slices call
			// in the function mentioning the returned expression.
			if sortedAfter(pass, n.decl, 0, res) {
				continue
			}
			found = src.asTrace()
		}
		return found == nil
	})
	return found
}

// mergeBareSends records, per channel-typed parameter, whether fd sends
// on it outside any select — directly, or by handing the parameter to a
// callee that does. Reports whether a new parameter effect appeared.
func (s *summarizer) mergeBareSends(pass *Pass, n *funcNode, sum *FuncSummary) bool {
	params := paramIndexMap(pass, n.decl)
	if len(params) == 0 {
		return false
	}
	selectComms := make(map[ast.Stmt]bool)
	for _, file := range n.pkg.Files {
		if fileOf(pass.Fset, file, n.decl.Pos()) {
			selectComms = collectSelectComms(file)
			break
		}
	}
	changed := false
	record := func(idx int, tr *EffectTrace) {
		if tr == nil {
			return
		}
		if sum.BareSendParams == nil {
			sum.BareSendParams = make(map[int]*EffectTrace)
		}
		if _, done := sum.BareSendParams[idx]; !done {
			sum.BareSendParams[idx] = tr
			changed = true
		}
	}
	ast.Inspect(n.decl, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.SendStmt:
			if selectComms[node] || s.sanctionedPos("sendguard", node.Pos()) {
				return true
			}
			if id, ok := unparen(node.Chan).(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					if idx, isParam := params[obj]; isParam {
						record(idx, &EffectTrace{Chain: []string{id.Name + " <- (send outside select)"}})
					}
				}
			}
		case *ast.CallExpr:
			cs := s.table.LookupCall(pass.Info, node)
			if cs == nil || len(cs.BareSendParams) == 0 || s.sanctionedPos("sendguard", node.Pos()) {
				return true
			}
			for ai, arg := range node.Args {
				tr, ok := cs.BareSendParams[ai]
				if !ok {
					continue
				}
				id, isIdent := unparen(arg).(*ast.Ident)
				if !isIdent {
					continue
				}
				obj := pass.Info.Uses[id]
				if obj == nil {
					continue
				}
				if idx, isParam := params[obj]; isParam {
					record(idx, tr.extend(cs.Display))
				}
			}
		}
		return true
	})
	return changed
}

// paramIndexMap maps fd's parameter objects to their positional index.
func paramIndexMap(pass *Pass, fd *ast.FuncDecl) map[types.Object]int {
	params := make(map[types.Object]int)
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					params[obj] = idx
				}
				idx++
			}
		}
	}
	return params
}

// fileOf reports whether pos lies within file.
func fileOf(fset *token.FileSet, file *ast.File, p token.Pos) bool {
	return file.FileStart <= p && p < file.FileEnd
}

// isSliceOrArray reports whether t's underlying type is a sequence whose
// element order is observable.
func isSliceOrArray(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}
