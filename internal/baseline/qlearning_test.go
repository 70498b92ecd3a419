package baseline

import (
	"context"
	"testing"

	"repro/internal/candgen"
	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/workload"
)

func candidateMetas(cands []*candgen.Candidate) []*catalog.IndexMeta {
	out := make([]*catalog.IndexMeta, len(cands))
	for i, c := range cands {
		out[i] = c.Meta
	}
	return out
}

func TestQLearningFindsUsefulIndex(t *testing.T) {
	db, w := greedyDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	metas := candidateMetas(gen.Generate(context.Background(), w))

	res, err := QLearning(est, w, metas, QLearningOptions{Episodes: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 {
		t.Fatal("agent should learn to add indexes")
	}
	if res.FinalCost >= res.BaseCost {
		t.Errorf("learned policy should improve cost: %.1f -> %.1f", res.BaseCost, res.FinalCost)
	}
}

func TestQLearningRespectsBudget(t *testing.T) {
	db, w := greedyDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	metas := candidateMetas(gen.Generate(context.Background(), w))
	if len(metas) == 0 {
		t.Fatal("need candidates")
	}
	budget := metas[0].SizeBytes + 1
	res, err := QLearning(est, w, metas, QLearningOptions{Episodes: 60, Seed: 3, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, m := range res.Selected {
		size += m.SizeBytes
	}
	if size > budget {
		t.Errorf("budget exceeded: %d > %d", size, budget)
	}
}

func TestQLearningNeedsManyMoreEvaluationsThanGreedy(t *testing.T) {
	// The paper's criticism made quantitative: to reach a comparable
	// configuration, episodic RL spends far more estimator evaluations than
	// one greedy pass (and than MCTS, which shares the policy-tree reuse).
	db, w := greedyDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())

	gres, err := Greedy(est, gen, w, nil, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	metas := candidateMetas(gen.Generate(context.Background(), w))
	qres, err := QLearning(est, w, metas, QLearningOptions{Episodes: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Quality should be comparable on this easy landscape...
	if qres.FinalCost > gres.FinalCost*1.1 {
		t.Errorf("agent should roughly match greedy: %.1f vs %.1f", qres.FinalCost, gres.FinalCost)
	}
	// ...but the training bill is the story: environment interactions
	// (episodes × steps) dwarf greedy's single pass by orders of magnitude.
	if qres.Interactions < gres.Evaluations*10 {
		t.Errorf("RL should cost far more interactions: %d vs %d greedy evals",
			qres.Interactions, gres.Evaluations)
	}
}

func TestQLearningEmptyCandidates(t *testing.T) {
	db, w := greedyDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	res, err := QLearning(est, w, nil, QLearningOptions{Episodes: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 || res.FinalCost != res.BaseCost {
		t.Error("no candidates, no changes")
	}
}

func TestQLearningWriteOnlyWorkloadSelectsNothing(t *testing.T) {
	db, _ := greedyDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	readW := &workload.Workload{}
	addSQL(t, readW, "SELECT * FROM ev WHERE a = 7", 1) // generate candidates from a read shape
	metas := candidateMetas(gen.Generate(context.Background(), readW))

	writeW := &workload.Workload{}
	addSQL(t, writeW, "INSERT INTO ev (id, a, b, c) VALUES (99999, 1, 2, 3)", 500)
	res, err := QLearning(est, writeW, metas, QLearningOptions{Episodes: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Errorf("pure-write workload: agent should add nothing, got %d", len(res.Selected))
	}
}
