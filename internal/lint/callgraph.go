package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file builds edlint's module-wide call graph: one node per function
// declaration of every analysis unit, edges from direct (statically
// resolvable) calls. The graph is the substrate of the interprocedural
// summary pass (summary.go): summaries are computed bottom-up over the
// graph's strongly connected components, so a callee's effects are known
// before any of its callers are summarized, and mutual recursion is
// handled by a fixpoint within its component.
//
// Resolution is deliberately static-only: a call through an interface
// method, a function value, or a method value resolves to no node and
// contributes no edge. That keeps the graph sound for the analyzers'
// purpose — an unresolved call is treated as effect-free, so laundered
// wallclock findings under-report rather than guess — and cheap
// enough to rebuild on every run.

// funcNode is one function declaration in the call graph.
type funcNode struct {
	// key is the stable cross-unit identity (types.Func.FullName): the
	// same function seen through an import resolves to the same key even
	// though the importer's types.Func object differs from the analysis
	// unit's.
	key string
	// display is the compact rendering used in cross-function traces,
	// e.g. "report.Write" or "Pipeline.Run".
	display string
	// pkg is the analysis unit declaring the function.
	pkg *Package
	// decl is the declaration, body included.
	decl *ast.FuncDecl
	// callees are the keys of every statically resolved callee that has a
	// node in the graph, sorted and de-duplicated.
	callees []string
}

// callGraph is the module-wide call graph.
type callGraph struct {
	nodes map[string]*funcNode
}

// buildCallGraph collects every function declaration of the module and
// resolves its direct callees.
func buildCallGraph(mod *Module) *callGraph {
	g := &callGraph{nodes: make(map[string]*funcNode)}
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{
					key:     obj.FullName(),
					display: displayName(obj),
					pkg:     pkg,
					decl:    fd,
				}
				// A name collision between units (the in-package unit and
				// an external-test unit share no declarations, so this
				// only guards hypothetical duplicates) keeps the first.
				if _, dup := g.nodes[n.key]; !dup {
					g.nodes[n.key] = n
				}
			}
		}
	}
	for _, n := range g.nodes {
		n.callees = resolveCallees(n, g.nodes)
	}
	return g
}

// resolveCallees walks one declaration and returns the sorted unique keys
// of every direct callee that has a node in the graph.
func resolveCallees(n *funcNode, nodes map[string]*funcNode) []string {
	seen := make(map[string]bool)
	ast.Inspect(n.decl, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, ok := calleeKey(n.pkg.Info, call); ok {
			if _, known := nodes[key]; known {
				seen[key] = true
			}
		}
		return true
	})
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// calleeKey statically resolves a call expression to the FullName of the
// called function or method. Interface methods resolve to the abstract
// method's name, which never has a node, so dynamic dispatch contributes
// no edge.
func calleeKey(info *types.Info, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if inner, ok := unparen(fun.X).(*ast.Ident); ok {
			id = inner
		} else if sel, ok := unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return "", false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return "", false
	}
	return fn.FullName(), true
}

// displayName renders a function object compactly for cross-function
// traces: "pkg.Func" for package functions, "Type.Method" for methods
// (pointer receivers lose the star; the type name carries the identity).
func displayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name := types.TypeString(t, func(p *types.Package) string { return "" })
		// Instantiated or generic receivers render with brackets; strip
		// them for trace brevity.
		if i := strings.IndexByte(name, '['); i > 0 {
			name = name[:i]
		}
		return name + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			path = path[i+1:]
		}
		return path + "." + fn.Name()
	}
	return fn.Name()
}

// sccs returns the graph's strongly connected components in reverse
// topological order (callees before callers), each component's node keys
// sorted for determinism. Tarjan's algorithm emits components in exactly
// that order.
func (g *callGraph) sccs() [][]string {
	keys := make([]string, 0, len(g.nodes))
	for k := range g.nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	index := make(map[string]int, len(keys))
	low := make(map[string]int, len(keys))
	onStack := make(map[string]bool, len(keys))
	var stack []string
	var comps [][]string
	next := 0

	// Iterative Tarjan: the explicit frame stack keeps pathological call
	// chains from overflowing the goroutine stack.
	type frame struct {
		key string
		ci  int // next callee index to visit
	}
	var visit func(root string)
	visit = func(root string) {
		frames := []frame{{key: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			n := g.nodes[f.key]
			if f.ci == 0 {
				index[f.key] = next
				low[f.key] = next
				next++
				stack = append(stack, f.key)
				onStack[f.key] = true
			}
			advanced := false
			for f.ci < len(n.callees) {
				c := n.callees[f.ci]
				f.ci++
				if _, seen := index[c]; !seen {
					frames = append(frames, frame{key: c})
					advanced = true
					break
				}
				if onStack[c] && index[c] < low[f.key] {
					low[f.key] = index[c]
				}
			}
			if advanced {
				continue
			}
			// All callees visited: pop the frame, fold lowlink upward,
			// and emit a component when this node is its root.
			if low[f.key] == index[f.key] {
				var comp []string
				for {
					k := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[k] = false
					comp = append(comp, k)
					if k == f.key {
						break
					}
				}
				sort.Strings(comp)
				comps = append(comps, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[f.key] < low[parent.key] {
					low[parent.key] = low[f.key]
				}
			}
		}
	}
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			visit(k)
		}
	}
	return comps
}
