package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/autoindex"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sqlparser"
)

// check is one output check of a run; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// renderResult turns a statement's rows into one comparable string: in
// result order where the statement has an ORDER BY, as a sorted multiset
// otherwise.
func renderResult(stmt sqlparser.Statement, res *engine.Result) string {
	rows := make([]string, len(res.Rows))
	for i, tup := range res.Rows {
		vals := make([]string, len(tup))
		for j, v := range tup {
			vals[j] = v.String()
		}
		rows[i] = strings.Join(vals, "\x1f")
	}
	if sel, ok := stmt.(*sqlparser.SelectStmt); !ok || len(sel.OrderBy) == 0 {
		sort.Strings(rows)
	}
	return strings.Join(rows, "\x1e")
}

// autoIndexes lists the real secondary indexes AutoIndex created (it names
// them ai_<table>_<columns>).
func autoIndexes(db *engine.DB) []*catalog.IndexMeta {
	var out []*catalog.IndexMeta
	for _, meta := range db.Catalog().Indexes(false) {
		if strings.HasPrefix(meta.Name, "ai_") {
			out = append(out, meta)
		}
	}
	return out
}

// secondaryIndexBytes sums SizeBytes over non-pk_ real indexes.
func secondaryIndexBytes(db *engine.DB) int64 {
	var n int64
	for _, meta := range realSecondary(db.Catalog()) {
		n += meta.SizeBytes
	}
	return n
}

// compareProbes reports the first probe whose result changed.
func compareProbes(probes, before, after []string) (bool, string) {
	if len(before) != len(probes) || len(after) != len(probes) {
		return false, fmt.Sprintf("probe set ran %d/%d times, want %d", len(before), len(after), len(probes))
	}
	for i := range probes {
		if before[i] != after[i] {
			return false, "result changed with the index set: " + probes[i]
		}
	}
	return true, fmt.Sprintf("%d probes identical", len(probes))
}

// checkIndexes validates every AutoIndex-built tree and its entry count.
func checkIndexes(db *engine.DB) (bool, string) {
	metas := autoIndexes(db)
	for _, meta := range metas {
		var entries int64
		for _, tree := range db.IndexTrees(meta.Name) {
			if err := tree.Validate(); err != nil {
				return false, fmt.Sprintf("%s: %v", meta.Name, err)
			}
			entries += tree.Len()
		}
		if want := db.Heap(meta.Table).NumTuples(); entries != want {
			return false, fmt.Sprintf("%s holds %d entries, table %s holds %d tuples", meta.Name, entries, meta.Table, want)
		}
	}
	return true, fmt.Sprintf("%d indexes valid", len(metas))
}

// checkPromoted requires every apply that built indexes under the guardrail
// to have been verified and promoted. The quiet final round must have built
// some; an incremental round may find nothing to build.
func checkPromoted(r *run) (bool, string) {
	if r.ctrl == nil {
		return false, "no guardrail attached"
	}
	built := 0
	for i, o := range r.inst.mgr.Outcomes() {
		if i < r.guardFrom || len(o.CreatedNames) == 0 || o.Failed {
			continue
		}
		if o.Lifecycle != autoindex.LifecyclePromoted {
			return false, fmt.Sprintf("outcome %d ended %s", i, o.Lifecycle)
		}
		built++
	}
	if built == 0 && r.final != nil {
		return false, "the final round built no index"
	}
	return true, fmt.Sprintf("%d building outcomes under the guardrail, all promoted", built)
}

// checkCycles requires every `during` cycle to have run to completion and
// to have changed the index set: tune_round_ms is the median over cycles, and
// a round that built and dropped nothing would make it the time of a search
// alone. The cycles need not agree on the set: foreground writes move table
// statistics between them, and the tuner's choice between near-tied sets
// moves with those (info.round_sets lists every cycle's).
func checkCycles(tunes []tuneResult) (bool, string) {
	if len(tunes) == 0 {
		return false, "no cycle ran"
	}
	distinct := map[string]bool{}
	for i, t := range tunes {
		if !t.ok {
			return false, fmt.Sprintf("cycle %d did not complete", i)
		}
		if len(t.created)+len(t.dropped) == 0 {
			return false, fmt.Sprintf("cycle %d changed no index: %s", i, t.set)
		}
		distinct[t.shape] = true
	}
	return true, fmt.Sprintf("%d cycles, %d distinct shapes", len(tunes), len(distinct))
}

// stateChecks runs the output checks that read the final state. It must run
// before anything (the layer replays, the planted guardrail revert, the
// index-independence drop) disturbs that state.
func (r *run) stateChecks() []check {
	var out []check
	add := func(name string, ok bool, detail string) {
		out = append(out, check{Name: name, OK: ok, Detail: detail})
	}
	if r.final != nil {
		ok, detail := compareProbes(r.inst.probes, r.probeBefore, r.probeAfter)
		add("probe_results_unchanged", ok, detail)
		ok, detail = checkCycles(r.tunes)
		add("cycles_complete", ok, detail)
	}
	ok, detail := checkIndexes(r.inst.db)
	add("created_indexes_valid", ok, detail)
	ok, detail = checkPromoted(r)
	add("outcome_promoted", ok, detail)
	return out
}

// checkIndexIndependence is the probe check of a workload without a quiet
// round (tpcc_drift2): the probes run against the final index set, every
// AutoIndex-built index is dropped, and they run again. It ends the run's
// use of the database.
func (r *run) checkIndexIndependence() check {
	before := r.runProbes()
	var names []string
	for _, meta := range autoIndexes(r.inst.db) {
		names = append(names, meta.Name)
	}
	_, err := r.inst.mgr.ApplyDrops(r.ctx, names)
	r.op("drop for probe check", err)
	after := r.runProbes()
	ok, detail := compareProbes(r.inst.probes, before, after)
	if err != nil {
		ok, detail = false, err.Error()
	}
	return check{Name: "probe_results_unchanged", OK: ok, Detail: detail}
}
