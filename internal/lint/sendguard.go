package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// sendGuardPolicedPackages is the concurrency core: the packages that own
// goroutines, channels and WaitGroups. PR 3's cancellation tests catch a
// leaked count or a stuck send dynamically, after the fact; sendguard
// rejects the shapes that make those leaks possible.
var sendGuardPolicedPackages = []string{
	"internal/pipeline",
	"internal/core",
	// resilience holds the injector and fake-clock mutexes and the
	// timer channels behind Clock; the same acquire/release discipline
	// applies.
	"internal/resilience",
	// serve holds the store/app mutexes and the campaign semaphore; both
	// disciplines (deferred unlock, cancellable sends) apply.
	"internal/serve",
}

// SendGuard enforces the acquire-paired-with-deferred-release discipline
// on the concurrency primitives of the pipeline/core packages:
//
//   - a channel send that is not a select case — if the receiver has gone
//     away (cancellation, early error) the send blocks forever; every send
//     must race a cancellation case (buffered-channel sends that provably
//     cannot block need an //edlint:ignore sendguard <reason>);
//   - wg.Done() called outside a defer — a panic or early return on any
//     path between the work and the Done leaks the count and deadlocks
//     Wait;
//   - wg.Add() inside a spawned goroutine — the race window between spawn
//     and Add lets Wait return before the goroutine is counted; Add must
//     happen before the go statement;
//   - wg.Add() in a function whose body (closures included) never defers a
//     matching Done — the count can never drain;
//   - mu.Lock()/RLock() not immediately followed by the matching deferred
//     Unlock — an early return between acquire and release deadlocks the
//     next user.
var SendGuard = &Analyzer{
	Name: "sendguard",
	Doc: "reports channel sends outside a select case, WaitGroup counts " +
		"without a deferred release on every path, and locks without an " +
		"immediately deferred unlock (pipeline/core packages)",
	Run: runSendGuard,
}

// sendGuardPoliced reports whether the unit path (test suffix ignored)
// owns concurrency primitives and is under sendguard's discipline.
func sendGuardPoliced(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, p := range sendGuardPolicedPackages {
		if strings.HasSuffix(path, p) {
			return true
		}
	}
	return false
}

func runSendGuard(pass *Pass) {
	if !sendGuardPoliced(pass.Path) {
		return
	}
	for _, file := range pass.Files {
		selectComms := collectSelectComms(file)
		deferredCalls := collectDeferredCalls(file)
		spawned := collectSpawnedLits(file)
		eachTopFunc(file, func(fd *ast.FuncDecl) {
			checkSends(pass, fd, selectComms)
			checkWaitGroups(pass, fd, deferredCalls, spawned)
			checkLocks(pass, fd)
		})
	}
}

// collectSelectComms records every statement that is the communication of
// a select case (exempt from the bare-send rule).
func collectSelectComms(file *ast.File) map[ast.Stmt]bool {
	comms := make(map[ast.Stmt]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
				comms[cc.Comm] = true
			}
		}
		return true
	})
	return comms
}

// collectDeferredCalls records every call expression that is the call of a
// defer statement.
func collectDeferredCalls(file *ast.File) map[*ast.CallExpr]bool {
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && d.Call != nil {
			deferred[d.Call] = true
		}
		return true
	})
	return deferred
}

// collectSpawnedLits records every function literal that is the direct
// callee of a go statement.
func collectSpawnedLits(file *ast.File) map[*ast.FuncLit]bool {
	spawned := make(map[*ast.FuncLit]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
			spawned[lit] = true
		}
		return true
	})
	return spawned
}

// checkSends reports channel sends that are not select-case comms.
func checkSends(pass *Pass, fd *ast.FuncDecl, selectComms map[ast.Stmt]bool) {
	ast.Inspect(fd, func(n ast.Node) bool {
		send, ok := n.(*ast.SendStmt)
		if !ok || selectComms[send] {
			return true
		}
		pass.Reportf(send.Pos(),
			"channel send outside a select case: if the receiver is gone the send blocks forever; select against ctx.Done() (a provably non-blocking buffered send needs //edlint:ignore sendguard <reason>)")
		return true
	})
}

// checkWaitGroups applies the three WaitGroup rules to fd.
func checkWaitGroups(pass *Pass, fd *ast.FuncDecl, deferredCalls map[*ast.CallExpr]bool, spawned map[*ast.FuncLit]bool) {
	// Map each Add target to whether a deferred Done on the same rendering
	// exists anywhere in the declaration (closures included).
	deferredDone := make(map[string]bool)
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !deferredCalls[call] {
			return true
		}
		if recv, name := waitGroupMethod(pass, call); name == "Done" {
			deferredDone[recv] = true
		}
		return true
	})

	var inGo func(n ast.Node, inside bool)
	inGo = func(n ast.Node, inside bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m != n {
					inGo(m, inside || spawned[m])
					return false
				}
			case *ast.CallExpr:
				recv, name := waitGroupMethod(pass, m)
				switch name {
				case "Done":
					if !deferredCalls[m] {
						pass.Reportf(m.Pos(),
							"%s.Done() is not deferred: a panic or early return before this call leaks the WaitGroup count and deadlocks Wait; use defer %s.Done() at the top of the goroutine",
							recv, recv)
					}
				case "Add":
					if inside {
						pass.Reportf(m.Pos(),
							"%s.Add() inside a spawned goroutine races Wait: the counter may still be zero when Wait runs; call Add before the go statement",
							recv)
					} else if !deferredDone[recv] {
						pass.Reportf(m.Pos(),
							"%s.Add() has no matching deferred %s.Done() anywhere in this function: the count can never drain on every path",
							recv, recv)
					}
				}
			}
			return true
		})
	}
	inGo(fd, false)
}

// checkLocks reports Lock/RLock calls whose next statement is not the
// matching deferred unlock.
func checkLocks(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			expr, ok := stmt.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := expr.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			recv, name := mutexMethod(pass, call)
			var want string
			switch name {
			case "Lock":
				want = "Unlock"
			case "RLock":
				want = "RUnlock"
			default:
				continue
			}
			if i+1 < len(block.List) {
				if d, ok := block.List[i+1].(*ast.DeferStmt); ok {
					if drecv, dname := mutexMethod(pass, d.Call); dname == want && drecv == recv {
						continue
					}
				}
			}
			pass.Reportf(call.Pos(),
				"%s.%s() is not followed by defer %s.%s(): an early return or panic between acquire and release deadlocks the next user",
				recv, name, recv, want)
		}
		return true
	})
}

// waitGroupMethod returns the rendered receiver and method name when call
// is a method call on a sync.WaitGroup.
func waitGroupMethod(pass *Pass, call *ast.CallExpr) (string, string) {
	return methodOnSyncType(pass, call, "WaitGroup")
}

// mutexMethod returns the rendered receiver and method name when call is a
// method call on a sync.Mutex or sync.RWMutex.
func mutexMethod(pass *Pass, call *ast.CallExpr) (string, string) {
	if recv, name := methodOnSyncType(pass, call, "Mutex"); name != "" {
		return recv, name
	}
	return methodOnSyncType(pass, call, "RWMutex")
}

// methodOnSyncType matches a method call whose receiver is sync.<typeName>
// (directly or behind a pointer) and returns the receiver's rendering and
// the method name.
func methodOnSyncType(pass *Pass, call *ast.CallExpr, typeName string) (string, string) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	var recv types.Type
	if selInfo := pass.Info.Selections[sel]; selInfo != nil && selInfo.Kind() == types.MethodVal {
		recv = selInfo.Recv()
	} else {
		recv = pass.TypeOf(sel.X)
	}
	if recv == nil || !isNamedInPackage(recv, "sync", typeName) {
		return "", ""
	}
	return types.ExprString(sel.X), sel.Sel.Name
}
