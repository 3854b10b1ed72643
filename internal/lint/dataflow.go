package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is edlint's intra-procedural dataflow core: a small taint
// analysis that computes, per function, the reaching set of
// "nondeterministic" values — values whose bits or ordering can differ
// between two runs on identical input. Four source classes are tracked:
//
//   - map iteration order (the key/value variables of a range over a map);
//   - sync.Map.Range iteration order (the callback's parameters);
//   - wall-clock reads (time.Now, time.Since, time.Until);
//   - pseudo-randomness (any call into math/rand, package-level or on a
//     *rand.Rand).
//
// Propagation is a forward fixpoint over assignments: a variable assigned
// from a tainted expression becomes tainted with the same source, and a
// range over a tainted collection taints its iteration variables. The
// analysis is deliberately intra-procedural and may-taint (no
// path-sensitivity, no sanitization except sorting, which the analyzers
// model themselves): it answers "could this value descend from a
// nondeterministic source?", which is exactly the question the maporder
// and wallclock analyzers ask.

// sourceKind classifies a nondeterminism source.
type sourceKind int

// The tracked source classes.
const (
	srcMapRange sourceKind = iota
	srcSyncMapRange
	srcTime
	srcRand
)

// String names the source class for diagnostics.
func (k sourceKind) String() string {
	switch k {
	case srcMapRange:
		return "map iteration order"
	case srcSyncMapRange:
		return "sync.Map.Range iteration order"
	case srcTime:
		return "wall-clock time"
	case srcRand:
		return "math/rand"
	default:
		return "nondeterministic value"
	}
}

// taintSource is one nondeterministic value origin inside a function.
type taintSource struct {
	kind sourceKind
	// pos is where the source is introduced (the call or range keyword).
	pos token.Pos
	// desc renders the source for messages, e.g. "time.Now()" or
	// "range over m". For interprocedural sources it is the callee's
	// display name ("helpers.StampLabel").
	desc string
	// interproc marks a source introduced by a call to a function whose
	// summary carries the effect (edlint v3); trace is the callee's chain
	// down to the root cause and calleePkg its defining unit's path, so
	// analyzers can skip call sites whose callee already reports the
	// effect intra-procedurally.
	interproc bool
	trace     []string
	calleePkg string
}

// via renders the cross-function chain for a finding at a call site: the
// given head elements (typically the enclosing function), the source
// description, then the callee's chain.
func (s *taintSource) via(head ...string) string {
	tr := &EffectTrace{Chain: append([]string{s.desc}, s.trace...)}
	return tr.render(head...)
}

// flowSet is the result of the reaching analysis for one function
// declaration: the sources it introduces and the variable objects that may
// carry a value descending from each.
type flowSet struct {
	pass *Pass
	// sources lists every nondeterminism source in the function, in
	// source order.
	sources []*taintSource
	// tainted maps a variable object to the source it descends from (the
	// first source reaching it; a variable merged from several sources
	// keeps the one that reached it first, which is enough for reporting).
	tainted map[types.Object]*taintSource
}

// taintFunc runs the reaching analysis over one function declaration.
func taintFunc(pass *Pass, fn *ast.FuncDecl) *flowSet {
	f := &flowSet{pass: pass, tainted: make(map[types.Object]*taintSource)}
	f.seed(fn)
	// Forward fixpoint: each pass propagates taint one assignment deeper.
	// Chains are short in practice; the node count bounds the iteration for
	// pathological inputs.
	limit := 0
	ast.Inspect(fn, func(n ast.Node) bool { limit++; return true })
	for i := 0; i < limit; i++ {
		if !f.propagate(fn) {
			break
		}
	}
	return f
}

// seed records every source the function introduces and taints the
// variables directly bound to one (range variables, callback parameters).
func (f *flowSet) seed(fn *ast.FuncDecl) {
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := f.pass.TypeOf(n.X); t != nil && isMapType(t) {
				src := &taintSource{kind: srcMapRange, pos: n.Pos(), desc: "range over " + types.ExprString(n.X)}
				f.sources = append(f.sources, src)
				f.mark(n.Key, src)
				f.mark(n.Value, src)
			}
		case *ast.CallExpr:
			if src := nondetCallSource(f.pass, n); src != nil {
				f.sources = append(f.sources, src)
			} else if src := summaryCallSource(f.pass, n); src != nil {
				f.sources = append(f.sources, src)
			}
			if lit := syncMapRangeCallback(f.pass, n); lit != nil {
				src := &taintSource{kind: srcSyncMapRange, pos: n.Pos(), desc: types.ExprString(n.Fun)}
				f.sources = append(f.sources, src)
				for _, field := range lit.Type.Params.List {
					for _, name := range field.Names {
						if obj := f.pass.Info.Defs[name]; obj != nil {
							f.tainted[obj] = src
						}
					}
				}
			}
		}
		return true
	})
}

// propagate performs one forward pass over the function's assignments and
// range statements, returning whether any new variable became tainted.
func (f *flowSet) propagate(fn *ast.FuncDecl) bool {
	changed := false
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					if src := f.exprSource(rhs); src != nil {
						changed = f.markChanged(n.Lhs[i], src) || changed
					}
				}
			} else if len(n.Rhs) == 1 {
				// x, y := f() — one tainted result taints every target.
				if src := f.exprSource(n.Rhs[0]); src != nil {
					for _, lhs := range n.Lhs {
						changed = f.markChanged(lhs, src) || changed
					}
				}
			}
			// Compound assignment (x += tainted) taints the target too.
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE && len(n.Rhs) == 1 {
				if src := f.exprSource(n.Rhs[0]); src != nil {
					for _, lhs := range n.Lhs {
						changed = f.markChanged(lhs, src) || changed
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				src := f.exprSource(v)
				if src == nil {
					continue
				}
				if len(n.Values) == len(n.Names) {
					changed = f.markChanged(n.Names[i], src) || changed
				} else {
					for _, name := range n.Names {
						changed = f.markChanged(name, src) || changed
					}
				}
			}
		case *ast.RangeStmt:
			// Ranging over a tainted collection taints the iteration
			// variables (order and contents both descend from the source).
			if src := f.exprSource(n.X); src != nil {
				changed = f.markChanged(n.Key, src) || changed
				changed = f.markChanged(n.Value, src) || changed
			}
		}
		return true
	})
	return changed
}

// mark taints the object bound to the identifier e (no-op otherwise).
func (f *flowSet) mark(e ast.Expr, src *taintSource) { f.markChanged(e, src) }

// markChanged taints e's object and reports whether it was newly tainted.
func (f *flowSet) markChanged(e ast.Expr, src *taintSource) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := f.pass.Info.Defs[id]
	if obj == nil {
		obj = f.pass.Info.Uses[id]
	}
	if obj == nil {
		return false
	}
	if _, done := f.tainted[obj]; done {
		return false
	}
	f.tainted[obj] = src
	return true
}

// exprSource returns the source a value of e may descend from: e mentions
// a tainted variable, or contains a nondeterministic call.
func (f *flowSet) exprSource(e ast.Expr) *taintSource {
	if e == nil {
		return nil
	}
	var found *taintSource
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := f.pass.Info.Uses[n]; obj != nil {
				if src, ok := f.tainted[obj]; ok {
					found = src
				}
			}
		case *ast.CallExpr:
			if src := nondetCallSource(f.pass, n); src != nil {
				found = src
			} else if src := summaryCallSource(f.pass, n); src != nil {
				found = src
			}
		}
		return found == nil
	})
	return found
}

// summaryCallSource classifies a call as an interprocedural
// nondeterminism source: the statically resolved callee's summary says it
// reads the clock or draws randomness. The returned source carries the
// callee's trace so findings can render the whole cross-function chain.
func summaryCallSource(pass *Pass, call *ast.CallExpr) *taintSource {
	cs := pass.Sums.LookupCall(pass.Info, call)
	if cs == nil {
		return nil
	}
	mk := func(kind sourceKind, eff *EffectTrace) *taintSource {
		return &taintSource{
			kind:      kind,
			pos:       call.Pos(),
			desc:      cs.Display,
			interproc: true,
			trace:     eff.Chain,
			calleePkg: cs.Pkg,
		}
	}
	switch {
	case cs.ReadsClock != nil:
		return mk(srcTime, cs.ReadsClock)
	case cs.ReadsRand != nil:
		return mk(srcRand, cs.ReadsRand)
	}
	return nil
}

// nondetCallSource classifies call as a wall-clock or randomness source.
// Map-order sources are structural (range statements) and handled by seed.
func nondetCallSource(pass *Pass, call *ast.CallExpr) *taintSource {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	// Package-level calls: time.Now/Since/Until, math/rand.*.
	if id, ok := unparen(sel.X).(*ast.Ident); ok {
		if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
			switch pn.Imported().Path() {
			case "time":
				switch sel.Sel.Name {
				case "Now", "Since", "Until":
					return &taintSource{kind: srcTime, pos: call.Pos(), desc: "time." + sel.Sel.Name}
				}
				return nil
			case "math/rand", "math/rand/v2":
				return &taintSource{kind: srcRand, pos: call.Pos(), desc: "rand." + sel.Sel.Name}
			}
		}
	}
	// Method calls on *rand.Rand values.
	if selInfo := pass.Info.Selections[sel]; selInfo != nil && selInfo.Kind() == types.MethodVal {
		if named := namedType(selInfo.Recv()); named != nil {
			pkg := named.Obj().Pkg()
			if pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") {
				return &taintSource{kind: srcRand, pos: call.Pos(), desc: types.ExprString(call.Fun)}
			}
		}
	}
	return nil
}

// syncMapRangeCallback returns the function-literal callback of a
// (*sync.Map).Range call, or nil when call is something else.
func syncMapRangeCallback(pass *Pass, call *ast.CallExpr) *ast.FuncLit {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Range" || len(call.Args) != 1 {
		return nil
	}
	recv := pass.TypeOf(sel.X)
	if recv == nil || !isNamedInPackage(recv, "sync", "Map") {
		return nil
	}
	lit, ok := unparen(call.Args[0]).(*ast.FuncLit)
	if !ok || lit.Type.Params == nil {
		return nil
	}
	return lit
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// namedType unwraps pointers and returns t's named type, or nil.
func namedType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isNamedInPackage reports whether t (possibly behind a pointer) is the
// named type pkg.name.
func isNamedInPackage(t types.Type, pkg, name string) bool {
	named := namedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkg && named.Obj().Name() == name
}
