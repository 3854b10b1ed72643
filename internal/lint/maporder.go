package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder enforces the pipeline's byte-identical-output guarantee at its
// root: Go map iteration order is randomized, so anything a map-range loop
// feeds into a report, a rendered stream, or an order-sensitive
// accumulation differs between runs. Three patterns are reported inside a
// range over a map (or a sync.Map.Range callback):
//
//   - a write to an output sink (fmt.Print*/Fprint*, io.WriteString, or a
//     Write*/Print* method such as strings.Builder.WriteString) — the
//     output is emitted in map order;
//   - an append to a slice declared outside the loop that is never passed
//     to sort/slices afterwards — the slice accumulates in map order (the
//     sorted-keys idiom, append-then-sort, is recognized and allowed);
//   - in non-test code, a statement-position call whose arguments depend
//     on the iteration variables — state mutated through a method (e.g. a
//     report's add) accumulates in map order.
//
// The fix is almost always the same: collect the keys, sort them, and
// iterate the sorted slice (cf. profile.SortedKeys). Where iteration order
// provably cannot reach the output, suppress with
// //edlint:ignore maporder <reason>.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "reports map or sync.Map iteration whose order can reach output " +
		"or an unsorted accumulation; iterate sorted keys instead",
	Run: runMapOrder,
}

// mapRegion is one map-ordered iteration space: the body of a range over a
// map, or the body of a sync.Map.Range callback.
type mapRegion struct {
	body *ast.BlockStmt
	desc string
	pos  token.Pos
	// iterObjs are the objects bound to the iteration variables (range
	// key/value or callback parameters). An append into a bucket indexed
	// directly by one of these is per-key accumulation and order-free.
	iterObjs map[types.Object]bool
}

func runMapOrder(pass *Pass) {
	for _, file := range pass.Files {
		eachTopFunc(file, func(fd *ast.FuncDecl) {
			flows := taintFunc(pass, fd)
			reported := make(map[token.Pos]bool)
			for _, region := range mapRegions(pass, fd) {
				checkMapRegion(pass, fd, flows, region, reported)
			}
		})
	}
}

// mapRegions collects every map-ordered iteration space of fd.
func mapRegions(pass *Pass, fd *ast.FuncDecl) []mapRegion {
	var regions []mapRegion
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil && isMapType(t) {
				iter := make(map[types.Object]bool)
				addIterObj(pass, iter, n.Key)
				addIterObj(pass, iter, n.Value)
				regions = append(regions, mapRegion{
					body:     n.Body,
					desc:     "range over " + types.ExprString(n.X),
					pos:      n.Pos(),
					iterObjs: iter,
				})
			}
		case *ast.CallExpr:
			if lit := syncMapRangeCallback(pass, n); lit != nil {
				iter := make(map[types.Object]bool)
				for _, field := range lit.Type.Params.List {
					for _, name := range field.Names {
						if obj := pass.Info.Defs[name]; obj != nil {
							iter[obj] = true
						}
					}
				}
				regions = append(regions, mapRegion{
					body:     lit.Body,
					desc:     types.ExprString(n.Fun),
					pos:      n.Pos(),
					iterObjs: iter,
				})
			}
		}
		return true
	})
	return regions
}

// checkMapRegion applies the three maporder rules to one region.
func checkMapRegion(pass *Pass, fd *ast.FuncDecl, flows *flowSet, region mapRegion, reported map[token.Pos]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return // a nested region already covers this node
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}
	ast.Inspect(region.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := outputSinkCall(pass, n); ok {
				report(n.Pos(),
					"%s inside %s: output is emitted in map iteration order; iterate sorted keys instead",
					name, region.desc)
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, ok := unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || len(call.Args) == 0 {
					continue
				}
				dst := unparen(call.Args[0])
				if declaredWithin(pass, dst, region.body) {
					continue // per-iteration local: order cannot escape
				}
				if indexedByIterVar(pass, dst, region.iterObjs) {
					continue // per-key bucket: each iteration appends to its own slot
				}
				if sortedAfter(pass, fd, call.Pos(), dst) {
					continue // append-then-sort idiom
				}
				report(call.Pos(),
					"append to %s inside %s accumulates in map iteration order and %s is never sorted; sort it or iterate sorted keys",
					types.ExprString(dst), region.desc, types.ExprString(dst))
			}
		case *ast.ExprStmt:
			if inTestFile(pass.Fset, n.Pos()) {
				return true // test chatter (t.Errorf in a map range) is harmless
			}
			call, ok := n.X.(*ast.CallExpr)
			if !ok || isBuiltinCall(pass, call) {
				return true
			}
			if _, sink := outputSinkCall(pass, call); sink {
				return true // rule 1 already covers sinks
			}
			if stdSortCall(pass, call) {
				return true // an in-place per-value sort cannot leak iteration order
			}
			for _, arg := range call.Args {
				src := flows.exprSource(arg)
				if src == nil || (src.kind != srcMapRange && src.kind != srcSyncMapRange) {
					continue
				}
				report(n.Pos(),
					"call %s inside %s receives %s, which depends on map iteration order; state mutated here accumulates in that order — iterate sorted keys",
					types.ExprString(call.Fun), region.desc, types.ExprString(arg))
				break
			}
		}
		return true
	})
}

// outputSinkCall reports whether call writes to an output stream and
// names the sink: fmt print functions, io.WriteString, or Write*/Print*
// methods (strings.Builder, bytes.Buffer, io.Writer, ...).
func outputSinkCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := unparen(sel.X).(*ast.Ident); ok {
		if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
			switch pn.Imported().Path() {
			case "fmt":
				switch sel.Sel.Name {
				case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
					return "fmt." + sel.Sel.Name, true
				}
			case "io":
				if sel.Sel.Name == "WriteString" {
					return "io.WriteString", true
				}
			}
			return "", false
		}
	}
	if selInfo := pass.Info.Selections[sel]; selInfo != nil && selInfo.Kind() == types.MethodVal {
		switch sel.Sel.Name {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Print", "Printf", "Println":
			return types.ExprString(call.Fun), true
		}
	}
	return "", false
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isBuiltinCall reports whether call invokes any builtin (delete, panic,
// println, ...), which the order-dependent-call rule exempts.
func isBuiltinCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// addIterObj records the object bound to a range key/value identifier.
func addIterObj(pass *Pass, iter map[types.Object]bool, e ast.Expr) {
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if obj := pass.Info.Defs[id]; obj != nil {
		iter[obj] = true
	} else if obj := pass.Info.Uses[id]; obj != nil {
		iter[obj] = true // for k = range m with a pre-declared k
	}
}

// indexedByIterVar reports whether dst is an index expression whose index
// is directly one of the region's iteration variables — the per-key-bucket
// idiom dst[k] = append(dst[k], v), where each iteration owns its slot and
// iteration order cannot reach the result. A transformed index (dst[f(k)])
// does not qualify: distinct keys may collide in one bucket, whose element
// order would then follow the map.
func indexedByIterVar(pass *Pass, dst ast.Expr, iterObjs map[types.Object]bool) bool {
	idx, ok := unparen(dst).(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := unparen(idx.Index).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	return obj != nil && iterObjs[obj]
}

// declaredWithin reports whether the root identifier of e is declared
// inside the block (a per-iteration local whose order cannot outlive one
// iteration). Selector-based destinations (fields) live beyond the loop by
// construction and return false.
func declaredWithin(pass *Pass, e ast.Expr, block *ast.BlockStmt) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= block.Pos() && obj.Pos() < block.End()
}

// sortedAfter reports whether fd contains, after pos, a call into package
// sort or slices that mentions dst — the append-then-sort idiom that makes
// a map-order accumulation deterministic again.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, pos token.Pos, dst ast.Expr) bool {
	want := types.ExprString(unparen(dst))
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || !stdSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if mentionsExprString(arg, want) {
				found = true
				break
			}
		}
		return !found
	})
	return found
}

// stdSortCall reports whether call invokes a function from package sort or
// slices. Such a call reorders its argument in place, per value — it
// cannot leak map iteration order into the result.
func stdSortCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	p := pn.Imported().Path()
	return p == "sort" || p == "slices"
}
