// Package workload defines the workload representation AutoIndex consumes —
// weighted SQL statements — plus helpers to build workloads from raw query
// streams. Scenario generators (TPC-C-style, TPC-DS-style, banking,
// epidemic) live in subpackages.
package workload

import (
	"fmt"

	"repro/internal/sqlparser"
)

// Query is one weighted statement of a workload. Weight is the number of
// times the statement (or its template) occurs.
type Query struct {
	SQL    string
	Stmt   sqlparser.Statement
	Weight float64
}

// Workload is a weighted set of statements observed over one tuning window.
type Workload struct {
	Queries []Query
}

// Add parses and appends a statement with the given weight.
func (w *Workload) Add(sql string, weight float64) error {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	w.Queries = append(w.Queries, Query{SQL: sql, Stmt: stmt, Weight: weight})
	return nil
}

// MustAdd is Add that panics; for generators emitting known-good SQL.
func (w *Workload) MustAdd(sql string, weight float64) {
	if err := w.Add(sql, weight); err != nil {
		panic(err)
	}
}
