package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// NilSafeObs enforces the detachable-instrumentation contract from
// internal/obs: every exported pointer-receiver method in the obs package,
// and every method implementing a monitor hook surface (btree.Monitor,
// session.BuildMonitor), must be a no-op on a nil receiver. Accepted
// proofs: the body never uses the receiver; the first statement is
// `if recv == nil { … }`; the body is the single statement
// `return recv == nil` / `return recv != nil`; or the body is a single
// delegation to another method on the same receiver (which the analyzer
// checks in turn).
var NilSafeObs = &analysis.Analyzer{
	Name: "nilsafeobs",
	Doc:  "exported obs methods and monitor-hook implementations (btree.Monitor, session.BuildMonitor) must start with a nil-receiver guard",
	Run:  runNilSafeObs,
}

func runNilSafeObs(pass *analysis.Pass) (any, error) {
	isObs := analysis.PathBase(pass.Pkg.Path()) == "obs"
	monitors := monitorInterfaces(pass.Pkg)
	if !isObs && len(monitors) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.ObjectOf(fd.Name).(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			recv := sig.Recv()
			if recv == nil {
				continue
			}
			ptr, ok := recv.Type().(*types.Pointer)
			if !ok {
				// Value receiver: if the type's pointer method set satisfies
				// a monitor surface, this method is reachable through a nil
				// pointer inside the interface value — and the automatic
				// dereference panics before any guard in the body could run.
				// The only fix is a pointer receiver with a guard.
				asPtr := types.NewPointer(recv.Type())
				for _, mon := range monitors {
					if implementsMethod(asPtr, mon.iface, fd.Name.Name) {
						pass.Reportf(fd.Pos(), "method %s implements %s with a value receiver, which panics when the interface holds a nil pointer; use a pointer receiver with a nil guard so a detached (nil) monitor stays a no-op",
							fd.Name.Name, mon.label)
						break
					}
				}
				continue
			}
			if isObs && fd.Name.IsExported() {
				if !nilGuarded(pass, fd) {
					pass.Reportf(fd.Pos(), "exported method %s must begin with a nil-receiver guard: a detached (nil) %s must be a no-op",
						fd.Name.Name, types.TypeString(ptr, relativeTo(pass.Pkg)))
				}
				continue
			}
			for _, mon := range monitors {
				if implementsMethod(ptr, mon.iface, fd.Name.Name) {
					if !nilGuarded(pass, fd) {
						pass.Reportf(fd.Pos(), "method %s implements %s and must begin with a nil-receiver guard",
							fd.Name.Name, mon.label)
					}
					break
				}
			}
		}
	}
	return nil, nil
}

// monitorIface is one detachable hook surface the analyzer knows about.
type monitorIface struct {
	iface *types.Interface
	label string
}

// monitorSurfaces maps an import-path suffix to the hook interface it
// exports; implementations of these interfaces anywhere in the repo must be
// nil-receiver-safe so callers never need nil checks.
var monitorSurfaces = []struct {
	pathSuffix string
	name       string
	label      string
}{
	{"internal/btree", "Monitor", "btree.Monitor"},
	{"internal/session", "BuildMonitor", "session.BuildMonitor"},
}

// monitorInterfaces finds the known monitor hook interfaces among the
// package's imports (deterministic order: monitorSurfaces order).
func monitorInterfaces(pkg *types.Package) []monitorIface {
	var out []monitorIface
	for _, s := range monitorSurfaces {
		for _, imp := range pkg.Imports() {
			if !strings.HasSuffix(imp.Path(), s.pathSuffix) {
				continue
			}
			obj := imp.Scope().Lookup(s.name)
			if obj == nil {
				break
			}
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				out = append(out, monitorIface{iface: iface, label: s.label})
			}
			break
		}
	}
	return out
}

// implementsMethod reports whether ptr implements iface and name is one of
// the interface's methods.
func implementsMethod(ptr *types.Pointer, iface *types.Interface, name string) bool {
	if !types.Implements(ptr, iface) {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// nilGuarded reports whether the method body is provably a no-op for a nil
// receiver, per the accepted forms in the analyzer doc.
func nilGuarded(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	recvIdent := receiverIdent(fd)
	if recvIdent == nil || recvIdent.Name == "_" {
		return true // receiver unnamed: body cannot dereference it
	}
	recvObj := pass.TypesInfo.ObjectOf(recvIdent)
	if recvObj == nil {
		return true
	}
	if !usesObject(pass, fd.Body, recvObj) {
		return true
	}
	if len(fd.Body.List) == 0 {
		return true
	}
	first := fd.Body.List[0]

	// Form: if recv == nil { … } as the first statement.
	if ifs, ok := first.(*ast.IfStmt); ok && ifs.Init == nil {
		if isNilCheck(pass, ifs.Cond, recvObj, token.EQL) {
			return true
		}
	}
	if len(fd.Body.List) != 1 {
		return false
	}
	// Form: return recv == nil / return recv != nil (e.g. Tracer.Enabled).
	if ret, ok := first.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
		if isNilCheck(pass, ret.Results[0], recvObj, token.EQL) ||
			isNilCheck(pass, ret.Results[0], recvObj, token.NEQ) {
			return true
		}
		if delegatesToReceiver(pass, ret.Results[0], recvObj) {
			return true
		}
	}
	// Form: single delegation recv.Other(…) (e.g. Counter.Inc → c.Add(1));
	// the delegate method is itself subject to this analyzer.
	if es, ok := first.(*ast.ExprStmt); ok && delegatesToReceiver(pass, es.X, recvObj) {
		return true
	}
	return false
}

// receiverIdent returns the receiver's name identifier, if any.
func receiverIdent(fd *ast.FuncDecl) *ast.Ident {
	names := fd.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	return names[0]
}

// usesObject reports whether the body references obj.
func usesObject(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

// isNilCheck reports whether expr is `recv <op> nil` (either operand order).
func isNilCheck(pass *analysis.Pass, expr ast.Expr, recv types.Object, op token.Token) bool {
	be, ok := expr.(*ast.BinaryExpr)
	if !ok || be.Op != op {
		return false
	}
	return (isObjIdent(pass, be.X, recv) && isNil(pass, be.Y)) ||
		(isObjIdent(pass, be.Y, recv) && isNil(pass, be.X))
}

// delegatesToReceiver reports whether expr is a method call whose receiver
// expression is exactly the receiver identifier (recv.M(…)).
func delegatesToReceiver(pass *analysis.Pass, expr ast.Expr, recv types.Object) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if _, isMethod := pass.TypesInfo.Selections[sel]; !isMethod {
		return false
	}
	return isObjIdent(pass, sel.X, recv)
}

func isObjIdent(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	id, ok := expr.(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(id) == obj
}

func isNil(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	return ok && tv.IsNil()
}

// relativeTo qualifies type names relative to pkg for diagnostics.
func relativeTo(pkg *types.Package) types.Qualifier {
	return func(other *types.Package) string {
		if other == pkg {
			return ""
		}
		return other.Name()
	}
}
