package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// ErrClass keeps every error on the online-build/apply path classifiable by
// session.Classify (which unwraps with fault.IsTransient to pick the
// retryable band):
//
//  1. On the build and revert paths — the functions reachable from
//     BuildIndexOnline, BuildIndexOnlineMonitored, Apply, ApplyDrops, or the
//     guardrail's RevertOutcome within the session, autoindex, and guardrail
//     packages — fmt.Errorf over an error argument must use %w.
//     A %v/%s wrap flattens the chain, so an injected transient fault
//     surfaces as permanent and the build (or the auto-revert's seeded
//     retry) never retries.
//  2. Same scope: errors.New over a string containing err.Error() is the
//     same flattening with extra steps.
var ErrClass = &analysis.Analyzer{
	Name: "errclass",
	Doc:  "build-path errors must stay Classify-able: wrap with %w and never flatten via err.Error()",
	Run:  runErrClass,
}

// errClassRoots name the build- and revert-path entry points; the checked
// set is their transitive callees within the target packages.
var errClassRoots = stringSet{
	"BuildIndexOnline": true, "BuildIndexOnlineMonitored": true,
	"Apply": true, "ApplyDrops": true,
	// The guardrail's auto-revert retries on fault.IsTransient, so every
	// error it produces must stay Classify-able end to end.
	"RevertOutcome": true,
}

// errClassBuildPath computes (once per Run) the set of declared functions
// reachable from a build-path root without leaving the target packages.
func errClassBuildPath(prog *analysis.Program) map[*types.Func]bool {
	if m, ok := prog.Cache["errclass"].(map[*types.Func]bool); ok {
		return m
	}
	inScope := func(fn *types.Func) bool {
		return fn.Pkg() != nil && inTargets(fn.Pkg().Path(), "errclass")
	}
	reach := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, info := range programFuncs(prog) {
		if errClassRoots[info.Fn.Name()] && inScope(info.Fn) {
			reach[info.Fn] = true
			queue = append(queue, info.Fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		info := prog.Funcs[fn]
		if info == nil {
			continue
		}
		for _, c := range info.Callees {
			if reach[c] || !inScope(c) {
				continue
			}
			if _, declared := prog.Funcs[c]; declared {
				reach[c] = true
				queue = append(queue, c)
			}
		}
	}
	prog.Cache["errclass"] = reach
	return reach
}

func runErrClass(pass *analysis.Pass) (any, error) {
	if !inTargets(pass.Pkg.Path(), "errclass") || pass.Program == nil {
		return nil, nil
	}
	buildPath := errClassBuildPath(pass.Program)
	for _, info := range programFuncs(pass.Program) {
		if info.Pkg.Types != pass.Pkg || !buildPath[info.Fn] {
			continue
		}
		checkBuildPathErrors(pass, info.Decl.Body)
	}
	return nil, nil
}

// checkBuildPathErrors applies rules 1 and 2 to one build-path function.
func checkBuildPathErrors(pass *analysis.Pass, body *ast.BlockStmt) {
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf" && len(call.Args) >= 2:
			format, ok := constString(pass, call.Args[0])
			if !ok || strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				tv, ok := pass.TypesInfo.Types[arg]
				if ok && tv.Type != nil && types.Implements(tv.Type, errorIface) {
					pass.Reportf(call.Pos(), "fmt.Errorf wraps a build-path error without %%w; session.Classify cannot unwrap it, so a transient fault reads as permanent and is never retried")
					break
				}
			}
		case fn.Pkg().Path() == "errors" && fn.Name() == "New" && len(call.Args) == 1:
			if containsErrorCall(pass, call.Args[0]) {
				pass.Reportf(call.Pos(), "errors.New flattens a build-path error via err.Error(); wrap with fmt.Errorf(\"…: %%w\", err) so session.Classify can still unwrap it")
			}
		}
		return true
	})
}

// containsErrorCall reports whether expr contains a call of the error
// interface's Error method.
func containsErrorCall(pass *analysis.Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn != nil && fn.Name() == "Error" && len(call.Args) == 0 {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
				sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
				types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// constString extracts a compile-time string constant.
func constString(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
