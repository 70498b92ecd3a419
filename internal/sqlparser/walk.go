package sqlparser

// Walk calls visit on e and, when visit returns true, walks each of e's
// children in source order. It is the one function that knows which nodes
// sit below each expression node; every traversal (name resolution, binding
// collection, aggregate collection, column qualification) is a visit
// function over it. A nil e is not visited.
func Walk(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch v := e.(type) {
	case *BinaryExpr:
		Walk(v.L, visit)
		Walk(v.R, visit)
	case *NotExpr:
		Walk(v.E, visit)
	case *InExpr:
		Walk(v.E, visit)
		for _, item := range v.List {
			Walk(item, visit)
		}
	case *BetweenExpr:
		Walk(v.E, visit)
		Walk(v.Lo, visit)
		Walk(v.Hi, visit)
	case *IsNullExpr:
		Walk(v.E, visit)
	case *FuncExpr:
		for _, a := range v.Args {
			Walk(a, visit)
		}
	}
}
