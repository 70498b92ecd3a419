// Package baseline implements the comparison methods of the paper's
// evaluation (§VI-A): Greedy — per-query candidate extraction followed by
// highest-benefit-first selection until the storage budget is reached — and
// the Default configuration (whatever indexes already exist). Greedy shares
// AutoIndex's cost estimation so the comparison isolates the selection
// strategy, exactly as the paper does.
package baseline

import (
	"context"
	"sort"
	"time"

	"repro/internal/candgen"
	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/workload"
)

// GreedyOptions tune the baseline.
type GreedyOptions struct {
	// Budget caps total index bytes (<=0: unlimited).
	Budget int64
	// MaxIndexes stops after selecting this many (<=0: unlimited).
	MaxIndexes int
	// PerQuery, when true, extracts candidates per individual query (the
	// paper's query-level method); otherwise the compressed workload is
	// used as-is.
	PerQuery bool
	// AtomicOnly restricts the candidate pool to single-column indexes, as
	// the paper describes its Greedy ("only selected atomic indexes
	// extracted from predicates", §VI-B). Composite candidates decompose
	// into their per-column singletons.
	AtomicOnly bool
}

// GreedyResult reports the baseline's selection.
type GreedyResult struct {
	Selected []*catalog.IndexMeta
	// PerIndexBenefit aligns with Selected: the marginal estimated benefit
	// at selection time.
	PerIndexBenefit []float64
	BaseCost        float64
	FinalCost       float64
	Evaluations     int
	Duration        time.Duration
	SizeBytes       int64
}

// Greedy selects indexes one at a time: at each step the candidate with the
// highest marginal benefit joins the set, until no candidate helps or the
// budget/index limit is hit. Existing indexes are kept (Greedy, like the
// works it models [2,3,26], only adds).
func Greedy(est *costmodel.Estimator, gen *candgen.Generator, w *workload.Workload,
	existing []*catalog.IndexMeta, opts GreedyOptions) (*GreedyResult, error) {

	start := time.Now()
	res := &GreedyResult{}

	var pool []*catalog.IndexMeta
	if opts.PerQuery {
		// Query-level extraction: one generator pass per query, no
		// template-level weight sharing. This is the expensive path the
		// paper's Fig. 8 ablation measures.
		seen := make(map[string]bool)
		for i := range w.Queries {
			single := &workload.Workload{Queries: []workload.Query{w.Queries[i]}}
			for _, c := range gen.Generate(context.Background(), single) {
				if !seen[c.Key()] {
					seen[c.Key()] = true
					pool = append(pool, c.Meta)
				}
			}
		}
	} else {
		for _, c := range gen.Generate(context.Background(), w) {
			pool = append(pool, c.Meta)
		}
	}
	if opts.AtomicOnly {
		pool = atomicPool(gen, pool)
	}

	current := append([]*catalog.IndexMeta{}, existing...)
	base, err := est.WorkloadCost(w, current)
	if err != nil {
		return nil, err
	}
	res.Evaluations++
	res.BaseCost = base
	res.FinalCost = base
	res.SizeBytes = totalSize(current)

	for {
		if opts.MaxIndexes > 0 && len(res.Selected) >= opts.MaxIndexes {
			break
		}
		var bestIdx *catalog.IndexMeta
		bestCost := res.FinalCost
		for _, cand := range pool {
			if contains(current, cand.Key()) {
				continue
			}
			if opts.Budget > 0 && res.SizeBytes+cand.SizeBytes > opts.Budget {
				continue
			}
			c, err := est.WorkloadCost(w, append(append([]*catalog.IndexMeta{}, current...), cand))
			if err != nil {
				return nil, err
			}
			res.Evaluations++
			if c < bestCost {
				bestCost = c
				bestIdx = cand
			}
		}
		if bestIdx == nil {
			break
		}
		res.PerIndexBenefit = append(res.PerIndexBenefit, res.FinalCost-bestCost)
		res.Selected = append(res.Selected, bestIdx)
		current = append(current, bestIdx)
		res.FinalCost = bestCost
		res.SizeBytes += bestIdx.SizeBytes
	}

	// Report the selection by key; each benefit stays with its index.
	benefit := make(map[string]float64, len(res.Selected))
	for i, m := range res.Selected {
		benefit[m.Key()] = res.PerIndexBenefit[i]
	}
	sort.Slice(res.Selected, func(i, j int) bool {
		return res.Selected[i].Key() < res.Selected[j].Key()
	})
	for i, m := range res.Selected {
		res.PerIndexBenefit[i] = benefit[m.Key()]
	}
	res.Duration = time.Since(start)
	return res, nil
}

// atomicPool decomposes composite candidates into deduped single-column
// candidates with freshly estimated stats.
func atomicPool(gen *candgen.Generator, pool []*catalog.IndexMeta) []*catalog.IndexMeta {
	seen := make(map[string]bool)
	var out []*catalog.IndexMeta
	for _, m := range pool {
		for _, col := range m.Columns {
			single := &catalog.IndexMeta{
				Table: m.Table, Columns: []string{col}, Hypothetical: true,
				Local: m.Local,
			}
			if seen[single.Key()] {
				continue
			}
			seen[single.Key()] = true
			// Re-estimate stats for the single column.
			if est, err := gen.EstimateCandidate(m.Table, []string{col}, m.Local); err == nil {
				single = est
			}
			single.Name = "gr_atomic_" + single.Table + "_" + col
			out = append(out, single)
		}
	}
	return out
}

func contains(set []*catalog.IndexMeta, key string) bool {
	for _, m := range set {
		if m.Key() == key {
			return true
		}
	}
	return false
}

func totalSize(set []*catalog.IndexMeta) int64 {
	var t int64
	for _, m := range set {
		t += m.SizeBytes
	}
	return t
}
