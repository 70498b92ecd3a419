// Package experiments implements every experiment of the paper's evaluation
// section (§VI): each Fig*/Table* function loads the relevant scenario,
// runs Default / Greedy / AutoIndex as the paper does, and returns the rows
// or series the paper reports. cmd/benchrunner prints them; bench_test.go
// wraps them in testing.B benchmarks. Absolute numbers differ from the
// paper (the substrate is an in-process engine, not a provisioned server);
// the comparisons and trends are the reproduction target.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/autoindex"
	"repro/internal/baseline"
	"repro/internal/candgen"
	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mcts"
)

// MethodResult is one (method, workload) measurement.
type MethodResult struct {
	Method     string
	Run        harness.RunStats
	IndexCount int   // secondary indexes after tuning
	IndexBytes int64 // secondary index footprint
	TuneMillis int64 // index-management overhead
}

// Latency returns total cost units (the paper's "total latency" axis).
func (m MethodResult) Latency() float64 { return m.Run.TotalCost }

// Throughput returns statements per 1000 cost units.
func (m MethodResult) Throughput() float64 { return m.Run.Throughput() }

// String renders one row.
func (m MethodResult) String() string {
	return fmt.Sprintf("%-10s latency=%12.1f throughput=%8.3f indexes=%3d size=%8dB tune=%5dms errors=%d",
		m.Method, m.Latency(), m.Throughput(), m.IndexCount, m.IndexBytes, m.TuneMillis, m.Run.Errors)
}

// defaultMCTS is the search configuration experiments use.
func defaultMCTS(seed int64) mcts.Config {
	return mcts.Config{Iterations: 400, Rollouts: 5, Seed: seed, EarlyStopRounds: 120}
}

// RoundTimeout bounds each tuning round's search in every experiment
// (0 = unbounded). benchrunner's -round-timeout flag sets it before any
// experiment runs; rounds that hit the deadline apply the best-so-far
// recommendation, flagged degraded.
var RoundTimeout time.Duration

// secondaryIndexStats counts non-PK real indexes and their footprint.
func secondaryIndexStats(cat *catalog.Catalog) (int, int64) {
	var n int
	var bytes int64
	for _, m := range cat.Indexes(false) {
		if m.IsPrimary() {
			continue
		}
		n++
		bytes += m.SizeBytes
	}
	return n, bytes
}

// applyGreedy creates the Greedy baseline's selected indexes for real.
func applyGreedy(db *engine.DB, res *baseline.GreedyResult) error {
	for i, spec := range res.Selected {
		name := fmt.Sprintf("gr_%s_%d", spec.Table, i)
		stmt := fmt.Sprintf("CREATE INDEX %s ON %s (%s)", name, spec.Table,
			strings.Join(spec.Columns, ", "))
		if _, err := db.Exec(stmt); err != nil {
			return err
		}
	}
	return nil
}

// observeAll feeds statements into the manager's template store.
func observeAll(m *autoindex.Manager, stmts []string) error {
	for _, sql := range stmts {
		if err := m.Observe(sql); err != nil {
			return err
		}
	}
	return nil
}

// newGreedyTools builds the estimator+generator pair Greedy shares with
// AutoIndex (paper: "Greedy and AutoIndex utilized the same cost estimation
// method").
func newGreedyTools(db *engine.DB) (*costmodel.Estimator, *candgen.Generator) {
	return costmodel.NewEstimator(db.Catalog()), candgen.NewGenerator(db.Catalog())
}
