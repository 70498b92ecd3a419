package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// MapIterOrder flags `for … range` over maps whose iteration order can leak
// into recommendation output: appends into outer slices (unless the loop is
// the single-append half of the collect-then-sort idiom), float
// accumulation, ordered sinks (prints, trace events), and returns that pick
// a value by iteration order. Map-to-map copies, integer accumulation, and
// scalar assignment are order-insensitive and allowed.
var MapIterOrder = &analysis.Analyzer{
	Name: "mapiterorder",
	Doc:  "flags map iteration whose order can reach recommendation output without sorting",
	Run:  runMapIterOrder,
}

func runMapIterOrder(pass *analysis.Pass) (any, error) {
	if !inTargets(pass.Pkg.Path(), "mapiterorder") {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, stmt := range list {
				for {
					ls, ok := stmt.(*ast.LabeledStmt)
					if !ok {
						break
					}
					stmt = ls.Stmt
				}
				rng, ok := stmt.(*ast.RangeStmt)
				if !ok || !isMapType(pass, rng.X) {
					continue
				}
				checkMapRange(pass, rng, list[i+1:])
			}
			return true
		})
	}
	return nil, nil
}

// isMapType reports whether expr's type (or its core type, for named map
// types) is a map.
func isMapType(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange inspects one map-range body for order-sensitive sinks. tail
// is the statement list following the range in its enclosing block, used to
// recognize the collect-then-sort idiom.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, tail []ast.Stmt) {
	rangeVars := rangeVarObjects(pass, rng)

	type appendInfo struct {
		stmt   *ast.AssignStmt
		target ast.Expr
	}
	var appends []appendInfo

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					if target, ok := appendToOuter(pass, rng, n.Lhs[i], rhs); ok {
						appends = append(appends, appendInfo{stmt: n, target: target})
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(n.Lhs) == 1 && isFloat(pass, n.Lhs[0]) && declaredBefore(pass, n.Lhs[0], rng) {
					pass.Report(n.Pos(), "float accumulation over map iteration is order-dependent; iterate sorted keys")
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if referencesAny(pass, res, rangeVars) {
					pass.Report(n.Pos(), "returning a value selected by map iteration order; iterate sorted keys")
					break
				}
			}
		case *ast.CallExpr:
			if name, ok := orderedSink(pass, n); ok {
				pass.Reportf(n.Pos(), "map iteration order flows into ordered sink %s; iterate sorted keys", name)
			}
		}
		return true
	})

	if len(appends) == 0 {
		return
	}
	// Collect-then-sort allowance: a loop body that is exactly one
	// unconditional `s = append(s, …)` whose target is sorted right after
	// the loop is the canonical deterministic way to drain a map.
	if len(appends) == 1 && len(rng.Body.List) == 1 && rng.Body.List[0] == ast.Stmt(appends[0].stmt) &&
		sortedAfter(pass, appends[0].target, tail) {
		return
	}
	for _, a := range appends {
		pass.Reportf(a.stmt.Pos(), "map iteration order flows into slice %s; sort keys before iterating, or append unconditionally and sort after the loop",
			types.ExprString(a.target))
	}
}

// rangeVarObjects returns the objects bound by the range clause (key and
// value), if any.
func rangeVarObjects(pass *analysis.Pass, rng *ast.RangeStmt) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			objs[obj] = true
		}
	}
	return objs
}

// appendToOuter reports whether lhs = rhs is `x = append(x, …)` where x is
// declared outside the range statement, returning the append target.
func appendToOuter(pass *analysis.Pass, rng *ast.RangeStmt, lhs, rhs ast.Expr) (ast.Expr, bool) {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil, false
	}
	if b, ok := pass.TypesInfo.ObjectOf(fn).(*types.Builtin); !ok || b == nil {
		return nil, false
	}
	if types.ExprString(lhs) != types.ExprString(call.Args[0]) {
		return nil, false
	}
	if !declaredBefore(pass, lhs, rng) {
		return nil, false
	}
	return lhs, true
}

// declaredBefore reports whether the root identifier of expr refers to an
// object declared before the range statement (i.e. outside its body).
func declaredBefore(pass *analysis.Pass, expr ast.Expr, rng *ast.RangeStmt) bool {
	id := rootIdent(expr)
	if id == nil {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	return obj != nil && obj.Pos() < rng.Pos()
}

// rootIdent unwraps selector/index/star/paren chains to the base identifier
// (res.AddedKeys → res).
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// isFloat reports whether expr has a floating-point type.
func isFloat(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// referencesAny reports whether expr mentions any of the given objects.
func referencesAny(pass *analysis.Pass, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && objs[obj] {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// orderedSink recognizes calls that emit output in call order: fmt prints
// and the obs trace/write surface (Span.Event, Span.SetAttr, Write*).
func orderedSink(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func); ok && fn.Pkg() != nil {
		if fn.Pkg().Path() == "fmt" {
			switch {
			case len(name) >= 5 && name[:5] == "Print",
				len(name) >= 6 && name[:6] == "Fprint":
				return "fmt." + name, true
			}
			return "", false
		}
	}
	// Method sinks: trace events/attributes and writers accumulate in call
	// order regardless of the receiver's package.
	if _, isMethod := pass.TypesInfo.Selections[sel]; isMethod {
		switch {
		case name == "Event", name == "SetAttr",
			len(name) >= 5 && name[:5] == "Write":
			return name, true
		}
	}
	return "", false
}

// sortedAfter reports whether any statement in tail calls a sort/slices
// function with target as an argument.
func sortedAfter(pass *analysis.Pass, target ast.Expr, tail []ast.Stmt) bool {
	want := types.ExprString(target)
	for _, stmt := range tail {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if types.ExprString(arg) == want {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
