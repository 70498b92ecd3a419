package experiments

import (
	"context"
	"fmt"

	"repro/internal/autoindex"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mcts"
	"repro/internal/workload/epidemic"
)

// WriteAwarenessResult ablates the estimator's maintenance-cost features
// (paper challenge C3): on the epidemic W2 insert-heavy phase, a
// write-aware estimator drops the community index while a read-only
// estimator wrongly keeps it, and the measured workload cost shows who was
// right.
type WriteAwarenessResult struct {
	// AwareDropsCommunity / BlindDropsCommunity report each variant's call.
	AwareDropsCommunity bool
	BlindDropsCommunity bool
	// CostKept / CostDropped are measured W2 costs with and without the
	// community index — ground truth for which call was correct.
	CostKept, CostDropped float64
}

// WriteCostAwareness runs the ablation.
func WriteCostAwareness(seed int64) (*WriteAwarenessResult, error) {
	out := &WriteAwarenessResult{}

	// Ground truth: measure the W2 phase with and without idx_community.
	measure := func(withIdx bool) (float64, error) {
		db := engine.New()
		l := epidemic.NewLoader(seed)
		if err := l.Load(db); err != nil {
			return 0, err
		}
		if withIdx {
			if _, err := db.Exec("CREATE INDEX idx_comm ON person (community)"); err != nil {
				return 0, err
			}
		}
		run := harness.Run(db, l.W2(600))
		return run.TotalCost, nil
	}
	var err error
	if out.CostKept, err = measure(true); err != nil {
		return nil, err
	}
	if out.CostDropped, err = measure(false); err != nil {
		return nil, err
	}

	// Each estimator variant decides whether to drop the index.
	decide := func(ignoreWrites bool) (bool, error) {
		db := engine.New()
		l := epidemic.NewLoader(seed)
		if err := l.Load(db); err != nil {
			return false, err
		}
		if _, err := db.Exec("CREATE INDEX idx_comm ON person (community)"); err != nil {
			return false, err
		}
		m := autoindex.New(db, autoindex.Options{MCTS: mcts.Config{Iterations: 150, Seed: seed}, RoundTimeout: RoundTimeout})
		m.Estimator().IgnoreWriteCosts = ignoreWrites
		m.Attach()
		harness.Run(db, l.W2(600))
		rec, err := m.Recommend(context.Background())
		if err != nil {
			return false, err
		}
		for _, d := range rec.Drop {
			if d == "idx_comm" {
				return true, nil
			}
		}
		return false, nil
	}
	if out.AwareDropsCommunity, err = decide(false); err != nil {
		return nil, err
	}
	if out.BlindDropsCommunity, err = decide(true); err != nil {
		return nil, err
	}
	return out, nil
}

// GammaSweepPoint is one exploration-constant setting's outcome on the
// correlated-pair search problem.
type GammaSweepPoint struct {
	Gamma float64
	// FoundPair reports whether the search discovered the correlated pair.
	FoundPair bool
	// BestCost is the configuration cost reached.
	BestCost float64
	// Evaluations spent.
	Evaluations int
}

// GammaSweep ablates the UCB exploration constant γ on a synthetic
// correlated-pair landscape with distractors: too little exploration gets
// stuck on a locally-good single index; enough exploration finds the pair.
func GammaSweep(seed int64, gammas []float64) ([]GammaSweepPoint, error) {
	// Synthetic landscape over 10 candidates on table t: c0 alone saves a
	// little (local optimum bait), c8+c9 together save a lot but are
	// worthless separately; everything else is noise with slight cost.
	specs := make([]*catalog.IndexMeta, 10)
	for i := range specs {
		specs[i] = &catalog.IndexMeta{
			Name: fmt.Sprintf("c%d", i), Table: "t",
			Columns: []string{fmt.Sprintf("c%d", i)}, SizeBytes: 100, Hypothetical: true,
		}
	}
	eval := mcts.EvaluatorFunc(func(_ context.Context, active []*catalog.IndexMeta) (float64, error) {
		cost := 1000.0
		has := make(map[string]bool, len(active))
		for _, m := range active {
			has[m.Key()] = true
		}
		if has["t(c0)"] {
			cost -= 150 // the bait
		}
		if has["t(c8)"] && has["t(c9)"] {
			cost -= 700 // the prize
		}
		// Noise indexes cost maintenance.
		for i := 1; i <= 7; i++ {
			if has[fmt.Sprintf("t(c%d)", i)] {
				cost += 20
			}
		}
		return cost, nil
	})
	var out []GammaSweepPoint
	for _, g := range gammas {
		res, err := mcts.Search(context.Background(), eval, nil, specs, mcts.Config{
			Gamma: g, Iterations: 120, Rollouts: 2, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		both := 0
		for _, k := range res.AddedKeys {
			if k == "t(c8)" || k == "t(c9)" {
				both++
			}
		}
		out = append(out, GammaSweepPoint{
			Gamma: g, FoundPair: both == 2, BestCost: res.BestCost, Evaluations: res.Evaluations,
		})
	}
	return out, nil
}
