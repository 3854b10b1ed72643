package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// wallclockPolicedPackages is the deterministic core: every package on the
// path from raw profiles to the rendered report. A wall-clock read or a
// math/rand draw anywhere here can change model coefficients, the
// CV-SMAPE model selection, or serialized output between two runs on
// identical input — exactly what the paper's reproducibility claim
// forbids. The simulator (seeded synthetic measurement substrate), the
// instrumentation layer, and the fault-injection harness are deliberately
// outside the list: producing measurements is their job.
var wallclockPolicedPackages = []string{
	"internal/aggregate",
	"internal/analysis",
	"internal/baseline",
	"internal/calltree",
	"internal/core",
	"internal/diagnose",
	"internal/epoch",
	"internal/experiments",
	"internal/importer",
	"internal/ingest",
	"internal/mathutil",
	"internal/measurement",
	"internal/modeling",
	"internal/pipeline",
	"internal/plot",
	"internal/pmnf",
	"internal/profile",
	// serve must pace every deadline and coalescing window through
	// resilience.Clock — a wall-clock read in a handler or fit loop
	// would leak nondeterminism into responses.
	"internal/serve",
	// propcheck is policed even though it is a math/rand consumer by
	// design: its engine file carries a sanctioned //edlint:ignore-file
	// wallclock directive, so the analyzer still guards every OTHER file
	// in the package (generators, shrinkers) against unseeded draws and
	// clock reads sneaking in beside the one sanctioned wrapper. The
	// edgen subpackage draws only through propcheck.Rand and needs no
	// suffix entry.
	"internal/propcheck",
	"internal/report",
	// resilience schedules faults and deadlines that must replay
	// identically from a seed: its only clock access goes through
	// the Clock interface, and the WallClock implementation is the one
	// sanctioned timer consumer.
	"internal/resilience",
	"internal/trace",
}

// WallClock keeps wall-clock time and pseudo-randomness out of the
// model-affecting paths. In the policed packages (non-test files) it
// reports every time.Now/Since/Until call and every math/rand draw,
// annotated with where the dataflow core sees the value land (returned,
// stored, or passed on). The one sanctioned consumer is the
// Observer/timings layer — stage durations are diagnostics, never model
// inputs — which must carry an explicit
// //edlint:ignore wallclock <reason> per source.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: "reports wall-clock and math/rand reads in the deterministic core " +
		"(profiles -> models -> report); only the Observer/timings layer " +
		"may read the clock, via an explicit suppression",
	Run: runWallClock,
}

// wallclockPoliced reports whether the unit path (test suffix ignored)
// lies in the deterministic core.
func wallclockPoliced(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, p := range wallclockPolicedPackages {
		if strings.HasSuffix(path, p) {
			return true
		}
	}
	return false
}

func runWallClock(pass *Pass) {
	if !wallclockPoliced(pass.Path) {
		return
	}
	for _, file := range pass.Files {
		eachTopFunc(file, func(fd *ast.FuncDecl) {
			if inTestFile(pass.Fset, fd.Pos()) {
				return // seeded rand and timing assertions are test business
			}
			flows := taintFunc(pass, fd)
			uses := collectConsumptions(pass, fd, flows)
			for _, src := range flows.sources {
				if src.kind != srcTime && src.kind != srcRand {
					continue // map-order sources belong to maporder
				}
				if src.interproc {
					// Interprocedural: the callee's summary carries the
					// effect. When the callee lives in a policed package
					// its own body already yields the finding (or a
					// sanctioning suppression); reporting the caller too
					// would double every fix.
					if wallclockPoliced(src.calleePkg) {
						continue
					}
					pass.Reportf(src.pos,
						"call to %s reads %s through a helper outside the deterministic core (%s)%s; sanction the source with //edlint:ignore wallclock <reason> — which clears every caller — or move the read out of the call chain",
						src.desc, src.kind, src.via(funcDisplay(pass, fd)), firstConsumption(uses, src))
					continue
				}
				where := firstConsumption(uses, src)
				pass.Reportf(src.pos,
					"%s (%s) in the deterministic core%s; model inputs, selection and serialized output must not depend on it — move it to the Observer/timings layer or suppress with //edlint:ignore wallclock <reason>",
					src.desc, src.kind, where)
			}
		})
	}
}

// funcDisplay renders the enclosing declaration for trace heads.
func funcDisplay(pass *Pass, fd *ast.FuncDecl) string {
	if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
		return displayName(fn)
	}
	return fd.Name.Name
}

// consumption is one place a nondeterministic value escapes a function's
// local dataflow: a return, a store into longer-lived state, or a call
// argument.
type consumption struct {
	pos  token.Pos
	src  *taintSource
	what string
}

// collectConsumptions finds, in source order, every point where a tainted
// value is returned, stored into a field/index/global, or passed to a
// call.
func collectConsumptions(pass *Pass, fd *ast.FuncDecl, flows *flowSet) []consumption {
	var uses []consumption
	add := func(pos token.Pos, src *taintSource, what string) {
		if src != nil {
			uses = append(uses, consumption{pos: pos, src: src, what: what})
		}
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				add(n.Pos(), flows.exprSource(res), "reaches a return value")
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if _, isIdent := unparen(lhs).(*ast.Ident); isIdent {
					continue // local propagation, already tracked
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs != nil {
					add(n.Pos(), flows.exprSource(rhs), "is stored in "+types.ExprString(lhs))
				}
			}
		case *ast.CallExpr:
			if nondetCallSource(pass, n) != nil {
				return true // the source itself, not a consumer
			}
			for _, arg := range n.Args {
				add(n.Pos(), flows.exprSource(arg), "is passed to "+types.ExprString(n.Fun))
			}
		}
		return true
	})
	sort.Slice(uses, func(i, j int) bool { return uses[i].pos < uses[j].pos })
	return uses
}

// firstConsumption renders the first consumption attributed to src, or ""
// when its value never visibly escapes. Sources are matched by origin
// position: exprSource re-derives a fresh taintSource for a call embedded
// in an expression, so pointer identity would miss those.
func firstConsumption(uses []consumption, src *taintSource) string {
	for _, u := range uses {
		if u.src.pos == src.pos {
			return "; its value " + u.what
		}
	}
	return ""
}
