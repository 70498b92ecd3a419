// Package costparams centralizes the cost-unit constants shared by the
// planner's estimates, the executor's ground-truth accounting, and the
// AutoIndex cost-feature computation (paper §V-A). Values follow the
// PostgreSQL/openGauss defaults the paper builds on.
package costparams

// Cost-unit hyperparameters (paper §V-A uses seq_page_cost,
// cpu_operator_cost and cpu_index_tuple_cost explicitly).
const (
	SeqPageCost       = 1.0    // sequential page fetch
	RandomPageCost    = 4.0    // random page fetch (index descents, heap fetch by RID)
	CPUTupleCost      = 0.01   // processing one heap tuple
	CPUIndexTupleCost = 0.005  // processing one index entry
	CPUOperatorCost   = 0.0025 // one operator/comparator evaluation
	// StartupDescentFactor is the per-level multiplier in the paper's
	// t_start formula: {ceil(log N) + (H+1) * 50} * cpu_operator_cost.
	StartupDescentFactor = 50.0
)

// DefaultSelectivity values used when statistics are missing.
const (
	DefaultEqSelectivity    = 0.005
	DefaultRangeSelectivity = 1.0 / 3
)

// IndexSelectivityThreshold is the paper's candidate-generation cutoff: a
// predicate only yields a candidate index if it filters the table down to
// at most this fraction (the paper phrases it as selectivity "higher than a
// threshold (e.g., 1/3)" — i.e., at least that selective).
const IndexSelectivityThreshold = 1.0 / 3
