// Package planner implements the cost-based query planner: name resolution,
// selectivity estimation from catalog statistics, access-path selection with
// leftmost-prefix index matching, greedy join ordering, and cost estimation
// for both reads and writes. It supports hypothetical indexes transparently
// (what-if planning, the HypoPG-equivalent AutoIndex relies on): a
// hypothetical IndexMeta in the catalog is considered for access paths
// exactly like a real one.
package planner

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
)

// Node is a physical plan operator. The engine package interprets plans.
type Node interface {
	// EstRows is the estimated output cardinality.
	EstRows() float64
	// EstCost is the estimated cumulative cost of producing all output.
	EstCost() float64
	// Explain renders a one-line description for plan inspection.
	Explain() string
}

type baseNode struct {
	rows float64
	cost float64
}

func (b *baseNode) EstRows() float64 { return b.rows }
func (b *baseNode) EstCost() float64 { return b.cost }

// SeqScanNode reads every heap page of a table.
type SeqScanNode struct {
	baseNode
	Table   string
	Binding string
	Filter  sqlparser.Expr // residual predicate, may be nil
}

// Explain renders the node.
func (n *SeqScanNode) Explain() string {
	return fmt.Sprintf("SeqScan(%s as %s) rows=%.0f cost=%.1f", n.Table, n.Binding, n.rows, n.cost)
}

// IndexScanNode probes an index with an equality prefix and optional range
// bound on the next column, then fetches matching heap tuples.
type IndexScanNode struct {
	baseNode
	Table   string
	Binding string
	Index   *catalog.IndexMeta
	// EqVals are constant expressions bound to the first len(EqVals) index
	// columns as equalities.
	EqVals []sqlparser.Expr
	// In, when non-empty, multi-probes index column len(EqVals) with each
	// listed value (col IN (...) bound). Mutually exclusive with Lo/Hi.
	In []sqlparser.Expr
	// Lo/Hi optionally bound index column len(EqVals) as a range.
	Lo, Hi       sqlparser.Expr
	LoInc, HiInc bool
	// Residual is the part of the predicate not absorbed by the index.
	Residual sqlparser.Expr
	// Sel is the estimated selectivity of the absorbed bounds.
	Sel float64
}

// Explain renders the node.
func (n *IndexScanNode) Explain() string {
	return fmt.Sprintf("IndexScan(%s via %s eq=%d range=%v) rows=%.0f cost=%.1f",
		n.Table, n.Index.Name, len(n.EqVals), n.Lo != nil || n.Hi != nil, n.rows, n.cost)
}

// JoinStrategy enumerates physical join algorithms.
type JoinStrategy uint8

// Supported join strategies.
const (
	JoinNestedLoop JoinStrategy = iota
	JoinHash
	JoinIndexNL
)

// String names the strategy.
func (s JoinStrategy) String() string {
	switch s {
	case JoinNestedLoop:
		return "NestedLoop"
	case JoinHash:
		return "Hash"
	case JoinIndexNL:
		return "IndexNL"
	default:
		return "?"
	}
}

// JoinNode combines two inputs. For JoinHash, LeftKey/RightKey are the
// equi-join expressions (left side evaluated against Left's bindings). For
// JoinIndexNL, Inner must be an IndexScanNode whose EqVals reference outer
// columns (evaluated per outer row by the engine).
type JoinNode struct {
	baseNode
	Strategy JoinStrategy
	Left     Node
	Right    Node
	// Cond is the full join condition evaluated as residual (always checked).
	Cond sqlparser.Expr
	// LeftKey/RightKey are set for hash joins.
	LeftKey, RightKey sqlparser.Expr
}

// Explain renders the node.
func (n *JoinNode) Explain() string {
	return fmt.Sprintf("%sJoin rows=%.0f cost=%.1f", n.Strategy, n.rows, n.cost)
}

// FilterNode applies a residual predicate above joins (e.g. cross-binding
// predicates not usable as join keys).
type FilterNode struct {
	baseNode
	Input Node
	Cond  sqlparser.Expr
}

// Explain renders the node.
func (n *FilterNode) Explain() string {
	return fmt.Sprintf("Filter rows=%.0f cost=%.1f", n.rows, n.cost)
}

// AggNode implements hash aggregation for GROUP BY and plain aggregates.
type AggNode struct {
	baseNode
	Input   Node
	GroupBy []sqlparser.Expr
	Select  []sqlparser.SelectItem
	Having  sqlparser.Expr
}

// Explain renders the node.
func (n *AggNode) Explain() string {
	return fmt.Sprintf("Agg(groups=%d) rows=%.0f cost=%.1f", len(n.GroupBy), n.rows, n.cost)
}

// SortNode sorts by the ORDER BY items. Satisfied reports when the input
// already delivers the order (index order) so the engine can skip sorting.
type SortNode struct {
	baseNode
	Input     Node
	OrderBy   []sqlparser.OrderItem
	Satisfied bool
}

// Explain renders the node.
func (n *SortNode) Explain() string {
	return fmt.Sprintf("Sort(satisfied=%v) rows=%.0f cost=%.1f", n.Satisfied, n.rows, n.cost)
}

// ProjectNode evaluates the final select list.
type ProjectNode struct {
	baseNode
	Input  Node
	Select []sqlparser.SelectItem
	// Distinct applies duplicate elimination after projection.
	Distinct bool
}

// Explain renders the node.
func (n *ProjectNode) Explain() string {
	return fmt.Sprintf("Project(items=%d) rows=%.0f cost=%.1f", len(n.Select), n.rows, n.cost)
}

// LimitNode truncates output.
type LimitNode struct {
	baseNode
	Input Node
	N     int64
}

// Explain renders the node.
func (n *LimitNode) Explain() string {
	return fmt.Sprintf("Limit(%d) rows=%.0f cost=%.1f", n.N, n.rows, n.cost)
}

// SelectPlan is a planned SELECT.
type SelectPlan struct {
	Root Node
	Stmt *sqlparser.SelectStmt
	// IndexesUsed lists the names of indexes any scan in the plan relies on.
	IndexesUsed []string
}

// EstCost returns the plan's total estimated cost.
func (p *SelectPlan) EstCost() float64 { return p.Root.EstCost() }

// WritePlan is a planned INSERT, UPDATE or DELETE. Reads needed to locate
// target rows are planned as a SelectPlan-like scan; maintenance cost
// covers updating each affected index.
type WritePlan struct {
	Stmt sqlparser.Statement
	// Scan locates target rows for UPDATE/DELETE (nil for INSERT).
	Scan Node
	// Table is the written table.
	Table string
	// AffectedRows estimates how many rows are written.
	AffectedRows float64
	// MaintainIndexes lists real+hypothetical indexes that must be updated,
	// with per-index estimated maintenance cost.
	MaintainIndexes []IndexMaintenance
	// ScanCost + WriteCost + maintenance = TotalCost.
	ScanCost, WriteCost, TotalCost float64
	// TouchedColumns are the columns modified (UPDATE) — an index is only
	// maintained when one of its key columns changes.
	TouchedColumns []string
	IndexesUsed    []string
}

// IndexMaintenance is the estimated cost of keeping one index in sync with
// one write statement, broken into the paper's feature terms.
type IndexMaintenance struct {
	Index *catalog.IndexMeta
	// IOCost mirrors C^io = |pages| * seq_page_cost.
	IOCost float64
	// StartupCost mirrors t_start = (ceil(log N) + (H+1)*50) * cpu_operator_cost.
	StartupCost float64
	// RunningCost mirrors t_running = N_insert * cpu_index_tuple_cost.
	RunningCost float64
}

// Total returns the summed maintenance cost for this index.
func (m IndexMaintenance) Total() float64 { return m.IOCost + m.StartupCost + m.RunningCost }
