package sqlparser

import (
	"sort"
	"strings"
)

// ReferencedTables returns the sorted, lower-cased set of base-table names
// a statement touches: FROM/JOIN tables and DML targets (an expression
// cannot name a table). The what-if cost cache keys on it — a query's plan
// can only depend on indexes sitting on these tables.
func ReferencedTables(stmt Statement) []string {
	set := make(map[string]bool)
	collectStmtTables(stmt, set)
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func collectStmtTables(stmt Statement, set map[string]bool) {
	switch s := stmt.(type) {
	case *SelectStmt:
		for _, t := range s.From {
			set[strings.ToLower(t.Name)] = true
		}
		for _, j := range s.Joins {
			set[strings.ToLower(j.Table.Name)] = true
		}
	case *InsertStmt:
		set[strings.ToLower(s.Table)] = true
	case *UpdateStmt:
		set[strings.ToLower(s.Table)] = true
	case *DeleteStmt:
		set[strings.ToLower(s.Table)] = true
	case *CreateTableStmt:
		set[strings.ToLower(s.Table)] = true
	case *CreateIndexStmt:
		set[strings.ToLower(s.Table)] = true
	case *ExplainStmt:
		collectStmtTables(s.Stmt, set)
	}
}
