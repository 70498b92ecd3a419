package lint

import (
	"go/ast"
	"go/token"

	"repro/internal/lint/analysis"
)

// FloatCostEq flags `==`/`!=` between two non-constant floating-point
// expressions in cost-model code: costs arrive through different summation
// orders and must be compared with the epsilon helpers in
// internal/floatcmp. Comparison against a compile-time constant (e.g.
// `cfg.Gamma == 0` for an unset default) stays allowed — that tests "was
// this field set", not "are two computed costs equal".
var FloatCostEq = &analysis.Analyzer{
	Name: "floatcosteq",
	Doc:  "flags ==/!= between computed float cost values; use epsilon comparisons",
	Run:  runFloatCostEq,
}

func runFloatCostEq(pass *analysis.Pass) (any, error) {
	if !inTargets(pass.Pkg.Path(), "floatcosteq") {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass, be.X) && !isFloat(pass, be.Y) {
				return true
			}
			if isConstant(pass, be.X) || isConstant(pass, be.Y) {
				return true
			}
			pass.Reportf(be.Pos(), "%s on computed float values is order-of-summation fragile; use an epsilon comparison (internal/floatcmp)", be.Op)
			return true
		})
	}
	return nil, nil
}

// isConstant reports whether expr is a compile-time constant.
func isConstant(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	return ok && tv.Value != nil
}
