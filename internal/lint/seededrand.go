package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// globalRandFuncs are the math/rand package-level functions backed by the
// shared, unseedable-in-tests global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
}

// SeededRand forbids the global math/rand source and wall-clock time inside
// search/estimation code: every stochastic path must thread an explicit
// seed (rand.New(rand.NewSource(seed))), and seeds must not be derived from
// time.Now.
var SeededRand = &analysis.Analyzer{
	Name: "seededrand",
	Doc:  "forbids global math/rand, time-derived seeds, and time.Now in estimation code",
	Run:  runSeededRand,
}

func runSeededRand(pass *analysis.Pass) (any, error) {
	if !inTargets(pass.Pkg.Path(), "seededrand") {
		return nil, nil
	}
	banTimeNow := inTargets(pass.Pkg.Path(), "seededrand/timenow")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if fn.Type().(*types.Signature).Recv() == nil && globalRandFuncs[fn.Name()] {
					pass.Reportf(call.Pos(), "rand.%s uses the global math/rand source; thread an explicitly seeded *rand.Rand instead", fn.Name())
				}
				if fn.Name() == "NewSource" && containsTimeNow(pass, call) {
					pass.Report(call.Pos(), "seeding rand from time.Now makes runs irreproducible; take the seed from config")
				}
			case "time":
				if banTimeNow && fn.Name() == "Now" && fn.Type().(*types.Signature).Recv() == nil {
					pass.Report(call.Pos(), "time.Now in estimation code breaks reproducibility; costs are deterministic cost units")
				}
			}
			return true
		})
	}
	return nil, nil
}

// calleeFunc resolves the called function object, if statically known.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.ObjectOf(id).(*types.Func)
	return fn
}

// containsTimeNow reports whether any argument of call contains a time.Now
// invocation.
func containsTimeNow(pass *analysis.Pass, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(pass, inner); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "time" && fn.Name() == "Now" {
				found = true
				return false
			}
			return !found
		})
		if found {
			return true
		}
	}
	return found
}
