// Package harness runs workloads against the engine and measures the
// quantities the paper's evaluation reports: total latency (the engine's
// deterministic cost-unit sum) and throughput (statements per cost unit).
// It also logs (features, actual cost) samples for estimator training.
package harness

import (
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/sqlparser"
)

// RunStats aggregates one workload execution.
type RunStats struct {
	Statements int
	Errors     int
	TotalCost  float64 // engine cost units ("total latency")
}

// Throughput returns statements per 1000 cost units (the deterministic
// throughput proxy used in experiment tables).
func (s RunStats) Throughput() float64 {
	if s.TotalCost == 0 {
		return 0
	}
	return float64(s.Statements) / s.TotalCost * 1000
}

// Run executes every statement, accumulating stats. Errors are counted but
// do not stop the run (a workload may contain statements referencing data
// deleted by earlier ones).
func Run(db *engine.DB, stmts []string) RunStats {
	var out RunStats
	for _, sql := range stmts {
		res, err := db.Exec(sql)
		out.Statements++
		if err != nil {
			out.Errors++
			continue
		}
		out.TotalCost += res.Stats.ActualCost()
	}
	return out
}

// CollectSamples executes statements and returns (features, actual cost)
// training samples using the estimator's feature computation under the
// database's current real index configuration.
func CollectSamples(db *engine.DB, est *costmodel.Estimator, stmts []string, maxSamples int) []costmodel.Sample {
	var samples []costmodel.Sample
	for _, sql := range stmts {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			continue
		}
		var f costmodel.Features
		wantSample := len(samples) < maxSamples
		if wantSample {
			f, err = est.ComputeFeatures(stmt)
			if err != nil {
				wantSample = false
			}
		}
		res, err := db.ExecStmt(stmt)
		if err == nil && wantSample {
			samples = append(samples, costmodel.Sample{Features: f, Actual: res.Stats.ActualCost()})
		}
	}
	return samples
}

// PerQueryCosts executes each statement separately and returns its measured
// cost, aligned with stmts (NaN-free: errors report cost 0).
func PerQueryCosts(db *engine.DB, stmts []string) []float64 {
	out := make([]float64, len(stmts))
	for i, sql := range stmts {
		res, err := db.Exec(sql)
		if err != nil {
			continue
		}
		out[i] = res.Stats.ActualCost()
	}
	return out
}

// Flatten joins transaction batches into one statement stream.
func Flatten(txns [][]string) []string {
	var out []string
	for _, t := range txns {
		out = append(out, t...)
	}
	return out
}
