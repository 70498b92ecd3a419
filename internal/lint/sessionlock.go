package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// SessionLock enforces the session layer's lock discipline across function
// boundaries, using the shared call graph: code running under a
// session.Manager lock (a Read/Exclusive closure, or a function only ever
// called from one) must not re-enter the lock — directly or through any
// chain of calls — because the RWMutex does not re-enter (nested Exclusive
// inside Read is a guaranteed self-deadlock). Mutation under the reader lock
// needs no rule: Read hands its closure an engine.Reader, which has no
// mutating method.
//
// Dynamic dispatch (interface methods, escaped function values) is not
// resolved; contexts it obscures are treated as unlocked, which errs toward
// missed nesting findings but never invents a lock that is not provably held.
var SessionLock = &analysis.Analyzer{
	Name: "sessionlock",
	Doc:  "no lock re-entry from Read/Exclusive closures, directly or through any chain of calls",
	Run:  runSessionLock,
}

// lockLevel orders the session-lock contexts a statement can run under.
type lockLevel int

const (
	lockNone lockLevel = iota
	lockRead
	lockExclusive
)

func (l lockLevel) String() string {
	switch l {
	case lockRead:
		return "Read"
	case lockExclusive:
		return "Exclusive"
	default:
		return "none"
	}
}

// managerMethod returns fn's name when fn is a method on session.Manager,
// and "" otherwise. Matching the import-path base lets fixture trees
// exercise the same rule as the real package.
func managerMethod(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil || analysis.PathBase(fn.Pkg().Path()) != "session" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); !ok || named.Obj().Name() != "Manager" {
		return ""
	}
	return fn.Name()
}

// isSessionLockEntry reports whether fn is a session.Manager method that
// acquires the instance lock; calling one while it is held re-enters the
// RWMutex.
func isSessionLockEntry(fn *types.Func) bool {
	switch managerMethod(fn) {
	case "Read", "Exclusive", "Exec", "ExecStmt", "BuildIndexOnline", "BuildIndexOnlineMonitored":
		return true
	}
	return false
}

// lockEntryLevel is the lock level session.Manager.Read/Exclusive run their
// closure argument under (lockNone for any other function).
func lockEntryLevel(fn *types.Func) lockLevel {
	switch managerMethod(fn) {
	case "Read":
		return lockRead
	case "Exclusive":
		return lockExclusive
	}
	return lockNone
}

// callSite is one statically-visible use of a declared function, with
// enough context to compute the lock level it executes under.
type callSite struct {
	caller *types.Func  // enclosing declaration
	lit    *ast.FuncLit // innermost enclosing literal (nil: decl body)
	// fixed, when >= 0, pins the site's level (function passed directly as
	// Read/Exclusive's argument). -1: contextual (resolved from lit or
	// caller level each round).
	fixed lockLevel
}

// sessionLockFacts is the program-wide fact table, computed once per Run.
type sessionLockFacts struct {
	litLevel  map[*ast.FuncLit]lockLevel
	funcLevel map[*types.Func]lockLevel
	mayLock   map[*types.Func]bool
}

// contextOf resolves the lock level at a site nested under lits within the
// declaration declFn. An enclosing literal that is not a known lock closure
// hides its eventual execution context (it may be stored, deferred, or run
// on another goroutine), so it demotes to lockNone.
func (f *sessionLockFacts) contextOf(lits []*ast.FuncLit, declFn *types.Func) lockLevel {
	if len(lits) > 0 {
		if lvl, ok := f.litLevel[lits[len(lits)-1]]; ok {
			return lvl
		}
		return lockNone
	}
	return f.funcLevel[declFn]
}

func sessionLockFactsFor(prog *analysis.Program) *sessionLockFacts {
	if f, ok := prog.Cache["sessionlock"].(*sessionLockFacts); ok {
		return f
	}
	f := &sessionLockFacts{
		litLevel:  make(map[*ast.FuncLit]lockLevel),
		funcLevel: make(map[*types.Func]lockLevel),
	}

	// Pass 1: the lock level of every closure (or declared function) handed
	// to Read/Exclusive, and every statically-visible use of each declared
	// function as a call site. References that are neither direct calls nor
	// Read/Exclusive's argument (escaping function values) count as unlocked
	// sites — the value may run anywhere.
	sites := make(map[*types.Func][]callSite)
	for _, info := range programFuncs(prog) {
		pkg := info.Pkg
		handled := make(map[*ast.Ident]bool)
		walkWithLits(info.Decl.Body, func(call *ast.CallExpr, lits []*ast.FuncLit) {
			var innermost *ast.FuncLit
			if len(lits) > 0 {
				innermost = lits[len(lits)-1]
			}
			callee := analysis.CalleeOf(pkg.TypesInfo, call)
			if callee != nil {
				if id := funIdent(call.Fun); id != nil {
					handled[id] = true
				}
				if _, declared := prog.Funcs[callee]; declared {
					sites[callee] = append(sites[callee], callSite{caller: info.Fn, lit: innermost, fixed: -1})
				}
			}
			lvl := lockEntryLevel(callee)
			if lvl == lockNone || len(call.Args) == 0 {
				return
			}
			switch arg := astUnparen(call.Args[0]).(type) {
			case *ast.FuncLit:
				f.litLevel[arg] = lvl
			case *ast.Ident:
				if target, ok := pkg.TypesInfo.ObjectOf(arg).(*types.Func); ok {
					handled[arg] = true
					if _, declared := prog.Funcs[target]; declared {
						sites[target] = append(sites[target], callSite{caller: info.Fn, fixed: lvl})
					}
				}
			}
		})
		ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || handled[id] {
				return true
			}
			if target, ok := pkg.TypesInfo.Uses[id].(*types.Func); ok {
				if _, declared := prog.Funcs[target]; declared {
					sites[target] = append(sites[target], callSite{caller: info.Fn, fixed: lockNone})
				}
			}
			return true
		})
	}

	// Pass 2 (fixpoint): a function's protection level is the minimum over
	// its call sites. Exported functions and functions with no visible
	// sites are entry points: unprotected. Levels start optimistic and only
	// decrease, so Jacobi iteration converges.
	for _, info := range programFuncs(prog) {
		fn := info.Fn
		if fn.Exported() || len(sites[fn]) == 0 {
			f.funcLevel[fn] = lockNone
		} else {
			f.funcLevel[fn] = lockExclusive
		}
	}
	for changed := true; changed; {
		changed = false
		for _, info := range programFuncs(prog) {
			fn := info.Fn
			if fn.Exported() || len(sites[fn]) == 0 {
				continue
			}
			lvl := lockExclusive
			for _, s := range sites[fn] {
				var sl lockLevel
				switch {
				case s.fixed >= 0:
					sl = s.fixed
				case s.lit != nil:
					var ok bool
					if sl, ok = f.litLevel[s.lit]; !ok {
						sl = lockNone
					}
				default:
					sl = f.funcLevel[s.caller]
				}
				if sl < lvl {
					lvl = sl
				}
			}
			if lvl < f.funcLevel[fn] {
				f.funcLevel[fn] = lvl
				changed = true
			}
		}
	}

	f.mayLock = prog.Propagate(isSessionLockEntry)
	prog.Cache["sessionlock"] = f
	return f
}

func runSessionLock(pass *analysis.Pass) (any, error) {
	prog := pass.Program
	if prog == nil {
		return nil, nil
	}
	f := sessionLockFactsFor(prog)

	for _, info := range programFuncs(prog) {
		if info.Pkg.Types != pass.Pkg {
			continue
		}
		pkg := info.Pkg
		walkWithLits(info.Decl.Body, func(call *ast.CallExpr, lits []*ast.FuncLit) {
			callee := analysis.CalleeOf(pkg.TypesInfo, call)
			if callee == nil {
				return
			}
			ctx := f.contextOf(lits, info.Fn)
			if ctx < lockRead {
				return
			}
			if isSessionLockEntry(callee) {
				pass.Reportf(call.Pos(), "%s re-enters the session lock inside a %s context: the RWMutex does not re-enter (self-deadlock)",
					analysis.FuncDisplay(callee), ctx)
				return
			}
			if f.mayLock[callee] {
				pass.Reportf(call.Pos(), "%s re-enters the session lock inside a %s context (path: %s): the RWMutex does not re-enter (self-deadlock)",
					analysis.FuncDisplay(callee), ctx, lockPathString(prog, callee))
			}
		})
	}
	return nil, nil
}

// lockPathString renders the witness chain fn → … → lock entry for
// diagnostics.
func lockPathString(prog *analysis.Program, fn *types.Func) string {
	path := prog.CallPath(fn, isSessionLockEntry)
	if path == nil {
		return analysis.FuncDisplay(fn)
	}
	parts := make([]string, len(path))
	for i, p := range path {
		parts[i] = analysis.FuncDisplay(p)
	}
	return strings.Join(parts, " → ")
}

// programFuncs iterates the program's declared functions in declaration
// order (Program.Funcs is a map; order matters for deterministic output).
func programFuncs(prog *analysis.Program) []*analysis.FuncInfo {
	if cached, ok := prog.Cache["_funcorder"].([]*analysis.FuncInfo); ok {
		return cached
	}
	var out []*analysis.FuncInfo
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.TypesInfo.ObjectOf(fd.Name).(*types.Func); ok {
					if info := prog.Funcs[fn]; info != nil {
						out = append(out, info)
					}
				}
			}
		}
	}
	prog.Cache["_funcorder"] = out
	return out
}

// walkWithLits visits every call expression in body along with the stack of
// enclosing function literals.
func walkWithLits(body *ast.BlockStmt, visit func(call *ast.CallExpr, lits []*ast.FuncLit)) {
	var stack []*ast.FuncLit
	var depth []int // literal-stack depth to restore at each node exit
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:depth[len(depth)-1]]
			depth = depth[:len(depth)-1]
			return true
		}
		depth = append(depth, len(stack))
		if lit, ok := n.(*ast.FuncLit); ok {
			stack = append(stack, lit)
		}
		if call, ok := n.(*ast.CallExpr); ok {
			visit(call, stack)
		}
		return true
	})
}

// funIdent returns the identifier a call's Fun resolves through, if any.
func funIdent(fun ast.Expr) *ast.Ident {
	switch e := astUnparen(fun).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

func astUnparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
