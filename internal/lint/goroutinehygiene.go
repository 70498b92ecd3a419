package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// GoroutineHygiene keeps background goroutines in the concurrency-bearing
// packages stoppable and their WaitGroup bookkeeping panic-safe:
//
//  1. Every `go` statement must launch something with a visible stop
//     signal: the goroutine references a context.Context, receives from or
//     ranges over a channel, or contains a select. For `go f()` with a
//     named callee the analyzer looks through the call graph at f's body
//     (and signature), so a method whose loop selects on a stop channel
//     passes.
//  2. sync.WaitGroup.Done inside a launched goroutine must be deferred: a
//     panic or early return otherwise leaks the count and deadlocks Wait.
//  3. sync.WaitGroup.Add inside a launched goroutine is always wrong — it
//     races the corresponding Wait; Add must precede the launch.
var GoroutineHygiene = &analysis.Analyzer{
	Name: "goroutinehygiene",
	Doc:  "goroutines in engine/session/loadgen/obs/benchrunner/bufferpool need a ctx or stop channel; WaitGroup.Done must be deferred and Add must precede the launch",
	Run:  runGoroutineHygiene,
}

func runGoroutineHygiene(pass *analysis.Pass) (any, error) {
	if !inTargets(pass.Pkg.Path(), "goroutinehygiene") {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, g)
			return true
		})
	}
	return nil, nil
}

func checkGoStmt(pass *analysis.Pass, g *ast.GoStmt) {
	call := g.Call
	if lit, ok := astUnparen(call.Fun).(*ast.FuncLit); ok {
		if !hasStopSignal(pass.TypesInfo, lit.Type, lit.Body) {
			pass.Reportf(g.Pos(), "goroutine has no stop signal: thread a context.Context, receive from a channel, or select on one — otherwise nothing can shut it down")
		}
		checkWaitGroupUse(pass, lit.Body)
		return
	}
	// Named launch (go f(...), go s.loop()): a ctx/channel flowing in
	// through the arguments counts, and so does a stop signal inside the
	// callee's own body, resolved through the call graph.
	ok := false
	for _, arg := range call.Args {
		if tv, found := pass.TypesInfo.Types[arg]; found && isCtxOrChan(tv.Type) {
			ok = true
			break
		}
	}
	if !ok {
		if fn := analysis.CalleeOf(pass.TypesInfo, call); fn != nil && pass.Program != nil {
			if info := pass.Program.Funcs[fn]; info != nil {
				ok = hasStopSignal(info.Pkg.TypesInfo, info.Decl.Type, info.Decl.Body)
			}
		}
	}
	if !ok {
		pass.Reportf(g.Pos(), "goroutine has no stop signal: neither the call's arguments nor the callee's body carry a context.Context, channel receive, or select")
	}
}

// hasStopSignal reports whether a function (signature + body) shows an
// explicit way to stop it: a context.Context in scope, a channel-typed
// parameter, a channel receive or range, or a select.
func hasStopSignal(info *types.Info, ftype *ast.FuncType, body *ast.BlockStmt) bool {
	if ftype != nil && ftype.Params != nil {
		for _, field := range ftype.Params.List {
			if tv, ok := info.Types[field.Type]; ok && isCtxOrChan(tv.Type) {
				return true
			}
		}
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if node.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[node.X]; ok && isChan(tv.Type) {
				found = true
			}
		case *ast.Ident:
			if obj := info.ObjectOf(node); obj != nil && isCtxType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isCtxOrChan(t types.Type) bool { return isCtxType(t) || isChan(t) }

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// checkWaitGroupUse applies rules 2 and 3 inside a launched literal.
func checkWaitGroupUse(pass *analysis.Pass, body *ast.BlockStmt) {
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if !isWaitGroupMethod(fn) {
			return true
		}
		switch fn.Name() {
		case "Done":
			if !deferred[call] {
				pass.Reportf(call.Pos(), "WaitGroup.Done inside a goroutine must be deferred: a panic or early return otherwise leaks the count and deadlocks Wait")
			}
		case "Add":
			pass.Reportf(call.Pos(), "WaitGroup.Add must happen before the goroutine starts; inside it, Add races the corresponding Wait")
		}
		return true
	})
}

func isWaitGroupMethod(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// isCtxType reports whether t is context.Context (by type, unlike
// ctxfirst's expression-based helper).
func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
