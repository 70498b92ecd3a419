package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest value with at least p% of the samples at or
// below it. Zero for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// supportedTail returns the highest tail percentile that still has at least
// ten samples beyond its nearest-rank position in a sample of size n (the
// choosing-metrics rule); 50 when not even p75 qualifies. A full round
// (>= 1,000 samples) always supports p99.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			return p
		}
	}
	return 50
}

// median returns the median of vs (mean of the two middle values for an even
// count), 0 when empty. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	slices.Sort(s)
	if m := len(s) / 2; len(s)%2 == 1 {
		return s[m]
	} else {
		return (s[m-1] + s[m]) / 2
	}
}

// roundStats summarises one measured round of foreground statements.
type roundStats struct {
	samples   int
	wallNs    int64
	p50us     float64
	p99us     float64
	stmtsPerS float64
	// costPerStmt is the mean ExecStats.ActualCost() per statement — the
	// deterministic latency proxy, and the guardrail's window value.
	costPerStmt float64
	// tuples and rows sum ExecStats.TuplesProcessed and rows returned or
	// affected: tuples examined per result row.
	tuples, rows int64
}

// summarizeRound reduces one round's per-statement latencies (ns, any order;
// sorted in place) to its statistics.
func summarizeRound(latNs []int64, wallNs int64, costSum float64) roundStats {
	slices.Sort(latNs)
	rs := roundStats{samples: len(latNs), wallNs: wallNs}
	if len(latNs) == 0 || wallNs <= 0 {
		return rs
	}
	rs.p50us = float64(percentile(latNs, 50)) / 1e3
	rs.p99us = float64(percentile(latNs, 99)) / 1e3
	rs.stmtsPerS = float64(len(latNs)) / (float64(wallNs) / 1e9)
	rs.costPerStmt = costSum / float64(len(latNs))
	return rs
}

// medianOver extracts one field from every round and returns its median:
// every percentile and throughput the benchmark reports is a median over
// rounds, never a pooled figure (rounds differ by state, not by noise).
func medianOver(rounds []roundStats, field func(roundStats) float64) float64 {
	vs := make([]float64, len(rounds))
	for i, r := range rounds {
		vs[i] = field(r)
	}
	return median(vs)
}
