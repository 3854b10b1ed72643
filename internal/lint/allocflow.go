package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the allocation-site scanner of the perf analyzer family
// (allocloop, prealloc). allocScan walks one hot function declaration
// with full lexical context — enclosing loops, amortized-growth regions,
// cold exit paths — and classifies every direct allocation site. Calls
// are sites only when they are allocating stdlib intrinsics: a hot loop
// calling a module helper that allocates is not reported.
//
// Three amortized idioms are exempt by construction, because reporting
// them would punish exactly the code the analyzers exist to encourage:
//
//   - grow-to-cap loops: for len(x) < n { x = append(x, …) } — the
//     canonical reusable-scratch grower, amortized O(1) per call;
//   - cap-guarded allocations: if cap(dst) < n { dst = make(…) } — the
//     reuse-or-grow entry check of buffer-filling helpers;
//   - reset-reuse appends: appends to a target assigned from x[:0] or
//     preallocated with a 3-arg make — the buffer is recycled, append
//     never grows it in steady state.
//
// Sites inside nested return statements and panic arguments are also
// exempt: an early exit executes at most once per loop entry (the
// statement leaves the loop), so an error-path fmt.Errorf does not count
// as a per-iteration allocation. A return in the function body's
// top-level statement list is the function's normal result path and is
// NOT exempt — `return make([]T, n)` is the function's own allocation.

// allocKind classifies one scanned site.
type allocKind int

const (
	// allocMake: make(T, …) of a slice, map or channel.
	allocMake allocKind = iota
	// allocNew: new(T).
	allocNew
	// allocLit: a slice/map composite literal or &T{…}.
	allocLit
	// allocIntrinsic: an allocating stdlib call (fmt.Sprintf, strconv
	// formatters, strings.Join, …) — functions without bodies in the
	// module whose allocation behaviour the scanner knows intrinsically.
	allocIntrinsic
	// allocAppend: a non-amortized append (prealloc).
	allocAppend
)

// allocSite is one classified allocation site.
type allocSite struct {
	kind allocKind
	pos  token.Pos
	// desc renders the site for messages ("make([]float64, n)").
	desc string
	// inLoop marks sites lexically inside a for/range body.
	inLoop bool
	// rangeCap is the capacity expression derivable from the innermost
	// enclosing range loop ("len(rows)", or the operand itself for an
	// integer range); empty when the innermost loop derives none.
	rangeCap string
	// rangeOperand is the ranged operand's source text, so appends to
	// the operand itself are not told to preallocate from it.
	rangeOperand string
	// target is the append target's source text (allocAppend only).
	target string
}

// allocFrame is the lexical context of one AST node during the scan.
type allocFrame struct {
	node         ast.Node
	inLoop       bool
	rangeCap     string
	rangeOperand string
	exempt       bool
	inLit        bool
	// topBlock marks the declaration body's own statement list: a return
	// there is the normal result path, not a cold early exit.
	topBlock bool
}

// allocScan classifies every allocation site of fd, in source
// order. Function-literal bodies are not descended into: their
// allocations happen on the literal's own schedule, not per call of fd.
func allocScan(pass *Pass, fd *ast.FuncDecl) []allocSite {
	sc := &allocScanner{pass: pass, fd: fd, reuse: collectReuseTargets(pass, fd), claimed: make(map[ast.Node]bool)}
	stack := []allocFrame{{node: fd}}
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if n == fd {
			return true // the root frame is already seeded
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies run on their own schedule
		}
		f := sc.childFrame(stack[len(stack)-1], n)
		sc.visit(f, n)
		stack = append(stack, f)
		return true
	})
	return sc.sites
}

// allocScanner accumulates sites during one scan.
type allocScanner struct {
	pass *Pass
	fd   *ast.FuncDecl
	// reuse holds append targets exempted by a [:0] reset or a 3-arg
	// make anywhere in the declaration, keyed by source text.
	reuse map[string]bool
	// claimed marks nodes consumed by an enclosing site (&T{…} claims
	// its composite literal) so they are not classified twice.
	claimed map[ast.Node]bool
	sites   []allocSite
}

// childFrame derives n's lexical context from its parent's.
func (sc *allocScanner) childFrame(parent allocFrame, n ast.Node) allocFrame {
	f := parent
	f.node = n
	if _, ok := n.(*ast.BlockStmt); ok {
		// Only the declaration body's own statement list is top-level;
		// any nested block (if/for/switch bodies) is control flow.
		f.topBlock = parent.node == sc.fd && n == sc.fd.Body
	}
	switch p := parent.node.(type) {
	case *ast.ForStmt:
		if n == p.Body {
			f.inLoop = true
			f.rangeCap, f.rangeOperand = "", ""
			if growToCapLoop(sc.pass, p) {
				f.exempt = true
			}
		}
	case *ast.RangeStmt:
		if n == p.Body {
			f.inLoop = true
			f.rangeCap, f.rangeOperand = rangeCapacity(sc.pass, p)
		}
	case *ast.IfStmt:
		// The cap-guard idiom: if cap(dst) < n { dst = make(…) }.
		if (n == p.Body || n == p.Else) && mentionsCapCall(sc.pass, p.Cond) {
			f.exempt = true
		}
	case *ast.ReturnStmt:
		// A nested return is a cold early exit (it leaves any loop);
		// a top-level-body return is the function's normal result path.
		if !parent.topBlock {
			f.exempt = true
		}
	case *ast.CallExpr:
		if builtinName(sc.pass, p) == "panic" {
			f.exempt = true
		}
	case *ast.CompositeLit:
		// A slice or map literal, or one under &, is the reported site
		// for everything inside it. A struct or array value allocates
		// nothing itself, so the literals it holds are sites of their own.
		if sc.claimed[p] || allocatingLit(sc.pass, p) {
			f.inLit = true
		}
	}
	return f
}

// allocatingLit reports whether the composite literal is of slice or map
// type, whose value is backed by a heap allocation.
func allocatingLit(pass *Pass, lit *ast.CompositeLit) bool {
	t := pass.TypeOf(lit)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// visit classifies one node in context f.
func (sc *allocScanner) visit(f allocFrame, n ast.Node) {
	if sc.claimed[n] {
		return
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		sc.visitAssign(f, n)
	case *ast.UnaryExpr:
		if lit, ok := unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND {
			sc.claimed[lit] = true
			if !f.exempt && !f.inLit {
				sc.add(f, allocSite{kind: allocLit, pos: n.Pos(), desc: "&" + litTypeString(sc.pass, lit) + "{…}"})
			}
		}
	case *ast.CompositeLit:
		if f.exempt || f.inLit {
			return
		}
		if allocatingLit(sc.pass, n) {
			sc.add(f, allocSite{kind: allocLit, pos: n.Pos(), desc: litTypeString(sc.pass, n) + "{…}"})
		}
	case *ast.CallExpr:
		sc.visitCall(f, n)
	}
}

// visitAssign handles append classification and reuse-target discovery
// happens up front in collectReuseTargets; here only the sites fire.
func (sc *allocScanner) visitAssign(f allocFrame, n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 && i == 0 {
			rhs = n.Rhs[0]
		}
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok || builtinName(sc.pass, call) != "append" || len(call.Args) == 0 {
			continue
		}
		if f.exempt {
			continue
		}
		base := unparen(call.Args[0])
		if isZeroResetSlice(sc.pass, base) {
			continue // append(x[:0], …): explicit reuse
		}
		target := types.ExprString(lhs)
		if sc.reuse[target] || sc.reuse[types.ExprString(base)] {
			continue // target was reset or capacity-preallocated
		}
		sc.add(f, allocSite{
			kind:   allocAppend,
			pos:    call.Pos(),
			desc:   "append to " + target,
			target: target,
		})
	}
}

// visitCall classifies a call site: builtin allocators and allocating
// stdlib intrinsics.
func (sc *allocScanner) visitCall(f allocFrame, call *ast.CallExpr) {
	switch builtinName(sc.pass, call) {
	case "make":
		if !f.exempt {
			sc.add(f, allocSite{kind: allocMake, pos: call.Pos(), desc: shortExpr(types.ExprString(call))})
		}
		return
	case "new":
		if !f.exempt {
			sc.add(f, allocSite{kind: allocNew, pos: call.Pos(), desc: shortExpr(types.ExprString(call))})
		}
		return
	case "":
		// not a builtin
	default:
		return // append is handled at its assignment; others don't allocate
	}
	if f.exempt {
		return
	}
	if desc, ok := intrinsicAllocCall(sc.pass, call); ok {
		sc.add(f, allocSite{kind: allocIntrinsic, pos: call.Pos(), desc: desc})
	}
}

// add stamps the frame context onto the site and records it.
func (sc *allocScanner) add(f allocFrame, site allocSite) {
	site.inLoop = f.inLoop
	site.rangeCap = f.rangeCap
	site.rangeOperand = f.rangeOperand
	sc.sites = append(sc.sites, site)
}

// collectReuseTargets finds append targets exempt from growth analysis:
// anything assigned from a [:0] reset or from a 3-arg (capacity-planned)
// make anywhere in the declaration. Capacity-planned fields of composite
// literals count too: x := &T{F: make([]E, 0, n)} exempts x.F.
func collectReuseTargets(pass *Pass, fd *ast.FuncDecl) map[string]bool {
	reuse := make(map[string]bool)
	isPlannedMake := func(e ast.Expr) bool {
		call, ok := unparen(e).(*ast.CallExpr)
		return ok && builtinName(pass, call) == "make" && len(call.Args) == 3
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			rhs = unparen(rhs)
			target := types.ExprString(as.Lhs[i])
			if isZeroResetSlice(pass, rhs) || isPlannedMake(rhs) {
				reuse[target] = true
				continue
			}
			lit, ok := rhs.(*ast.CompositeLit)
			if !ok {
				if ue, isAddr := rhs.(*ast.UnaryExpr); isAddr && ue.Op == token.AND {
					lit, ok = unparen(ue.X).(*ast.CompositeLit)
				}
			}
			if !ok || lit == nil {
				continue
			}
			for _, elt := range lit.Elts {
				kv, isKV := elt.(*ast.KeyValueExpr)
				if !isKV || !isPlannedMake(kv.Value) {
					continue
				}
				if key, isIdent := kv.Key.(*ast.Ident); isIdent {
					reuse[target+"."+key.Name] = true
				}
			}
		}
		return true
	})
	return reuse
}

// isZeroResetSlice reports whether e is a [:0]-style reset: a slice
// expression whose high bound is the constant 0.
func isZeroResetSlice(pass *Pass, e ast.Expr) bool {
	se, ok := unparen(e).(*ast.SliceExpr)
	if !ok || se.High == nil {
		return false
	}
	return isZeroConstant(pass.Info, se.High)
}

// growToCapLoop recognizes for len(x) < n { x = append(x, …) }: a
// len-comparison loop condition with an append in the body. Amortized
// growth to a target capacity, exempt by design.
func growToCapLoop(pass *Pass, f *ast.ForStmt) bool {
	cond, ok := f.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return false
	}
	isLen := func(e ast.Expr) bool {
		call, ok := unparen(e).(*ast.CallExpr)
		return ok && builtinName(pass, call) == "len"
	}
	if !isLen(cond.X) && !isLen(cond.Y) {
		return false
	}
	hasAppend := false
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && builtinName(pass, call) == "append" {
			hasAppend = true
		}
		return !hasAppend
	})
	return hasAppend
}

// mentionsCapCall reports whether the condition contains a cap(…) call —
// the reuse-or-grow guard of buffer-filling helpers.
func mentionsCapCall(pass *Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && builtinName(pass, call) == "cap" {
			found = true
		}
		return !found
	})
	return found
}

// rangeCapacity derives the preallocation capacity expression of a range
// statement: len(X) for sequences and maps, X itself for an integer
// range. The second result is the operand's own text.
func rangeCapacity(pass *Pass, r *ast.RangeStmt) (capExpr, operand string) {
	x := unparen(r.X)
	t := pass.TypeOf(x)
	if t == nil {
		return "", ""
	}
	operand = types.ExprString(x)
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map:
		return "len(" + operand + ")", operand
	case *types.Basic:
		if u.Info()&types.IsString != 0 {
			return "len(" + operand + ")", operand
		}
		if u.Info()&types.IsInteger != 0 {
			return operand, operand
		}
	case *types.Pointer:
		if _, ok := u.Elem().Underlying().(*types.Array); ok {
			return "len(" + operand + ")", operand
		}
	}
	return "", ""
}

// builtinName returns the builtin a call invokes ("make", "append",
// "len", …) or "" for non-builtin calls.
func builtinName(pass *Pass, call *ast.CallExpr) string {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// allocIntrinsics names stdlib functions known to allocate their result
// on every call. strings.Builder and the strconv.Append* family are
// deliberately absent: they are the fix, not the finding.
var allocIntrinsics = map[string]map[string]bool{
	"fmt": {
		"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
	},
	"strconv": {
		"FormatFloat": true, "FormatInt": true, "FormatUint": true,
		"Itoa": true, "Quote": true, "FormatComplex": true,
	},
	"strings": {
		"Join": true, "Repeat": true, "Split": true, "SplitN": true,
		"Fields": true, "Replace": true, "ReplaceAll": true,
		"ToUpper": true, "ToLower": true, "Map": true,
	},
	"bytes": {
		"Join": true, "Repeat": true, "Split": true, "Fields": true,
	},
}

// intrinsicAllocCall classifies a call of a known allocating stdlib
// function, returning its display ("fmt.Sprintf").
func intrinsicAllocCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	names := allocIntrinsics[pn.Imported().Path()]
	if names == nil || !names[sel.Sel.Name] {
		return "", false
	}
	return pn.Imported().Name() + "." + sel.Sel.Name, true
}

// shortExpr caps rendered expressions for message brevity.
func shortExpr(s string) string {
	const max = 48
	if len(s) <= max {
		return s
	}
	return s[:max-1] + "…"
}

// litTypeString renders a composite literal's type, falling back to the
// checked type for elided element types.
func litTypeString(pass *Pass, lit *ast.CompositeLit) string {
	if lit.Type != nil {
		return shortExpr(types.ExprString(lit.Type))
	}
	if t := pass.TypeOf(lit); t != nil {
		return shortExpr(t.String())
	}
	return "composite"
}

// hotLoopSuffix annotates messages with the designation channel, so a
// reader knows whether the function is hot by directive or by the
// policed default set.
func hotLoopSuffix(pass *Pass, fd *ast.FuncDecl) string {
	if hotByDirective(fd) {
		return " (hot by //edlint:hotpath)"
	}
	return " (policed fit-engine hot path)"
}
