package lint

import "go/ast"

// AllocLoop is the flagship of the perf analyzer family: it reports
// per-iteration heap allocations inside the loops of designated hot
// functions — direct make/new/composite-literal sites and calls of
// allocating stdlib intrinsics. A call to a module helper is not a site:
// designate the helper hot and its own body is policed.
//
// The amortized-growth idioms the fit engine is built on (grow-to-cap
// loops, cap-guarded makes, [:0] reuse buffers) and cold exit paths
// (returns, panics) are exempt — see allocflow.go — so the analyzer
// polices steady-state allocation behaviour, not buffer warm-up.
var AllocLoop = &Analyzer{
	Name: "allocloop",
	Doc: "reports per-iteration heap allocations in designated hot loops " +
		"(//edlint:hotpath directives plus the policed fit-engine default set): " +
		"make, new, composite literals and allocating stdlib calls",
	Run: runAllocLoop,
}

func runAllocLoop(pass *Pass) {
	for _, file := range pass.Files {
		if inTestFile(pass.Fset, file.Pos()) {
			continue
		}
		reportStrayHotpath(pass, file)
		eachTopFunc(file, func(fd *ast.FuncDecl) {
			if !isHotFunc(pass, fd) {
				return
			}
			for _, site := range allocScan(pass, fd) {
				if !site.inLoop || site.kind == allocAppend {
					continue
				}
				pass.Reportf(site.pos,
					"%s allocates on every iteration of a hot loop in %s%s; hoist it out of the loop or reuse a scratch buffer, or suppress with //edlint:ignore allocloop <reason>",
					site.desc, funcDisplay(pass, fd), hotLoopSuffix(pass, fd))
			}
		})
	}
}
