package experiments

import (
	"context"
	"time"

	"repro/internal/autoindex"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/workload/tpcds"
)

// PerQueryReduction is one query's execution-time reduction under a method.
type PerQueryReduction struct {
	Query     string
	BaseCost  float64
	TunedCost float64
}

// Reduction returns the fractional cost reduction (0.25 = 25% faster).
func (p PerQueryReduction) Reduction() float64 {
	if p.BaseCost <= 0 {
		return 0
	}
	r := (p.BaseCost - p.TunedCost) / p.BaseCost
	if r < 0 {
		return r // regressions are reported, not clamped
	}
	return r
}

// Fig6Result holds per-query reductions for both methods (Fig. 6) and the
// derived histogram counts (Fig. 7).
type Fig6Result struct {
	AutoIndex []PerQueryReduction
	Greedy    []PerQueryReduction
	// Indexes selected by each method.
	AutoIndexCount, GreedyCount int
}

// ImprovedOver counts queries whose reduction exceeds the threshold.
func ImprovedOver(rs []PerQueryReduction, threshold float64) int {
	n := 0
	for _, r := range rs {
		if r.Reduction() > threshold {
			n++
		}
	}
	return n
}

// Fig6TPCDS runs the TPC-DS-style query set under Default, then tunes with
// Greedy and with AutoIndex (same estimator), and reports per-query cost
// reductions. The paper's headline: AutoIndex optimizes ~3x more queries by
// >10% than Greedy (44 vs 15) because it finds correlated index sets.
func Fig6TPCDS(seed int64) (*Fig6Result, error) {
	qs := tpcds.QuerySet()
	stmts := make([]string, len(qs))
	for i, q := range qs {
		stmts[i] = q.SQL
	}

	// Each arm runs the query set as its one phase; each query is then
	// measured under the indexes the arm's method chose.
	var costs [3][]float64
	var counts [3]int
	for i, newArm := range []method{
		defaultArm,
		// Greedy: bounded index count like the paper (Greedy picked 3 there).
		greedyArm(baseline.GreedyOptions{MaxIndexes: 3, AtomicOnly: true}),
		autoIndexArm("AutoIndex", autoindex.Options{MCTS: defaultMCTS(seed)}),
	} {
		db := engine.New()
		if err := tpcds.NewLoader(seed).Load(db); err != nil {
			return nil, err
		}
		if _, _, err := newArm(db).phase(stmts); err != nil {
			return nil, err
		}
		costs[i] = harness.PerQueryCosts(db, stmts)
		counts[i], _ = secondaryIndexStats(db.Catalog())
	}
	base := costs[0]
	out := &Fig6Result{GreedyCount: counts[1], AutoIndexCount: counts[2]}
	for i, q := range qs {
		out.Greedy = append(out.Greedy, PerQueryReduction{Query: q.Name, BaseCost: base[i], TunedCost: costs[1][i]})
		out.AutoIndex = append(out.AutoIndex, PerQueryReduction{Query: q.Name, BaseCost: base[i], TunedCost: costs[2][i]})
	}
	return out, nil
}

// Q32Result reports the correlated-index motivation experiment (§III).
type Q32Result struct {
	BaseCost      float64
	ItemIndexOnly float64
	DateIndexOnly float64
	BothIndexes   float64
	// GreedyPicksPair reports whether one-step greedy would select either
	// index on its own merits (it should not — that is the point).
	GreedySeesBenefit bool
	// MCTSPicksPair reports whether the tree search finds the pair.
	MCTSPicksPair bool
	TuneMillis    int64
}

// Q32Correlated reproduces the paper's §III motivating case on the
// TPC-DS-style Q32 analogue: each index alone yields little, the pair is
// transformative; greedy stalls, MCTS finds the pair.
func Q32Correlated(seed int64) (*Q32Result, error) {
	q := `SELECT cs.cs_price, ws.ws_price FROM catalog_sales cs JOIN web_sales ws ON ws.ws_customer_id = cs.cs_customer_id WHERE cs.cs_item_id = 37 AND ws.ws_quantity > 12`

	build := func(indexes ...string) (float64, error) {
		db := engine.New()
		if err := tpcds.NewLoader(seed).Load(db); err != nil {
			return 0, err
		}
		for _, ddl := range indexes {
			if _, err := db.Exec(ddl); err != nil {
				return 0, err
			}
		}
		res, err := db.Exec(q)
		if err != nil {
			return 0, err
		}
		return res.Stats.ActualCost(), nil
	}

	itemIdx := "CREATE INDEX x_item ON catalog_sales (cs_item_id)"
	dateIdx := "CREATE INDEX x_cust ON web_sales (ws_customer_id)"

	out := &Q32Result{}
	var err error
	if out.BaseCost, err = build(); err != nil {
		return nil, err
	}
	if out.ItemIndexOnly, err = build(itemIdx); err != nil {
		return nil, err
	}
	if out.DateIndexOnly, err = build(dateIdx); err != nil {
		return nil, err
	}
	if out.BothIndexes, err = build(itemIdx, dateIdx); err != nil {
		return nil, err
	}

	// Now let AutoIndex search for the pair from the raw query.
	db := engine.New()
	if err := tpcds.NewLoader(seed).Load(db); err != nil {
		return nil, err
	}
	m := autoindex.New(db, autoindex.Options{MCTS: defaultMCTS(seed), RoundTimeout: RoundTimeout})
	m.Attach()
	if _, err := db.Exec(q); err != nil {
		return nil, err
	}
	start := time.Now()
	rec, err := m.Recommend(context.Background())
	if err != nil {
		return nil, err
	}
	out.TuneMillis = time.Since(start).Milliseconds()
	var hasItem, hasCust bool
	for _, c := range rec.Create {
		switch c.Key() {
		case "catalog_sales(cs_item_id)":
			hasItem = true
		case "web_sales(ws_customer_id)":
			hasCust = true
		}
	}
	out.MCTSPicksPair = hasItem && hasCust
	out.GreedySeesBenefit = out.ItemIndexOnly < out.BaseCost*0.9 ||
		out.DateIndexOnly < out.BaseCost*0.9
	return out, nil
}
