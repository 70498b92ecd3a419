package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// CtxFirst enforces the context-threading contract on the tune/apply path:
// an exported function or method that accepts a context.Context must take
// it as the first parameter (Go convention, and what keeps call sites
// greppable), and no function that already has a context in scope may mint
// a fresh context.Background()/TODO() — doing so silently detaches its
// callees from the round's deadline and cancellation.
var CtxFirst = &analysis.Analyzer{
	Name: "ctxfirst",
	Doc:  "tune/apply-path functions must take context first and must not replace a threaded context with context.Background",
	Run:  runCtxFirst,
}

func runCtxFirst(pass *analysis.Pass) (any, error) {
	if !inTargets(pass.Pkg.Path(), "ctxfirst") {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			hasCtx := checkCtxPosition(pass, fd)
			if fd.Body != nil {
				checkNoFreshContext(pass, fd.Body, hasCtx)
			}
		}
	}
	return nil, nil
}

// checkCtxPosition flags exported functions whose context parameter is not
// first, and reports whether the function takes a context at all.
func checkCtxPosition(pass *analysis.Pass, fd *ast.FuncDecl) (hasCtx bool) {
	if fd.Type.Params == nil {
		return false
	}
	idx := 0
	ctxIdx := -1
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // unnamed parameter
		}
		if isContextType(pass, field.Type) && ctxIdx == -1 {
			ctxIdx = idx
		}
		idx += n
	}
	if ctxIdx == -1 {
		return false
	}
	if ctxIdx != 0 && fd.Name.IsExported() {
		pass.Reportf(fd.Name.Pos(),
			"%s: context.Context must be the first parameter on the tune/apply path", fd.Name.Name)
	}
	return true
}

// checkNoFreshContext walks a body and flags context.Background()/TODO()
// calls made while a context is already in scope. Function literals are
// walked with the scope they inherit: a closure inside a ctx-taking
// function is still on the path, and a closure that declares its own
// context parameter brings one into scope itself.
func checkNoFreshContext(pass *analysis.Pass, body ast.Node, ctxInScope bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			inner := ctxInScope || funcLitTakesContext(pass, node)
			checkNoFreshContext(pass, node.Body, inner)
			return false // walked explicitly with the right scope
		case *ast.CallExpr:
			if !ctxInScope {
				return true
			}
			fn := calleeFunc(pass, node)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
				(fn.Name() == "Background" || fn.Name() == "TODO") {
				pass.Reportf(node.Pos(),
					"context.%s discards the threaded context; pass the caller's ctx downstream", fn.Name())
			}
		}
		return true
	})
}

func funcLitTakesContext(pass *analysis.Pass, lit *ast.FuncLit) bool {
	if lit.Type.Params == nil {
		return false
	}
	for _, field := range lit.Type.Params.List {
		if isContextType(pass, field.Type) {
			return true
		}
	}
	return false
}

// isContextType reports whether the expression's type is context.Context.
func isContextType(pass *analysis.Pass, expr ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(expr)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
