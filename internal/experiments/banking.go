package experiments

import (
	"context"
	"time"

	"repro/internal/autoindex"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/workload/banking"
)

// Fig1Result is the banking index-removal experiment (paper Fig. 1):
// AutoIndex removes most of an over-indexed hand-crafted configuration,
// frees the bulk of the index storage, and throughput does not regress.
type Fig1Result struct {
	IndexesBefore, IndexesAfter int
	BytesBefore, BytesAfter     int64
	ThroughputBefore            float64
	ThroughputAfter             float64
	RemovedFraction             float64
	StorageSavedFraction        float64
	TuneMillis                  int64
	StatementsManaged           int
}

// Fig1BankingRemoval loads the over-indexed banking database, runs the
// withdrawal service while observing, prunes + tunes, and re-measures.
func Fig1BankingRemoval(seed int64, stmtsPerPhase int) (*Fig1Result, error) {
	db := engine.New()
	l := banking.NewLoader(seed)
	if err := l.Load(db); err != nil {
		return nil, err
	}
	if _, err := l.InstallDefaultIndexes(db); err != nil {
		return nil, err
	}

	out := &Fig1Result{}
	out.IndexesBefore, out.BytesBefore = secondaryIndexStats(db.Catalog())

	m := autoindex.New(db, autoindex.Options{MCTS: defaultMCTS(seed), RoundTimeout: RoundTimeout})
	db.ResetUsage()

	// Phase 1: measure the default configuration under the service while
	// the manager observes templates and the engine tracks index usage.
	m.Attach()
	before := harness.Run(db, l.WithdrawalService(stmtsPerPhase))
	out.ThroughputBefore = before.Throughput()
	out.StatementsManaged = before.Statements

	// Tune: bulk prune of unused/neutral indexes, then MCTS refinement.
	start := time.Now()
	w := m.TemplateStore().Workload()
	drops, err := m.PruneRecommendation(context.Background(), w)
	if err != nil {
		return nil, err
	}
	if _, err := m.ApplyDrops(context.Background(), drops); err != nil {
		return nil, err
	}
	if _, _, err := m.Tune(context.Background()); err != nil {
		return nil, err
	}
	out.TuneMillis = time.Since(start).Milliseconds()

	// Phase 2: measure again on fresh service traffic.
	after := harness.Run(db, l.WithdrawalService(stmtsPerPhase))
	out.ThroughputAfter = after.Throughput()

	out.IndexesAfter, out.BytesAfter = secondaryIndexStats(db.Catalog())
	if out.IndexesBefore > 0 {
		out.RemovedFraction = 1 - float64(out.IndexesAfter)/float64(out.IndexesBefore)
	}
	if out.BytesBefore > 0 {
		out.StorageSavedFraction = 1 - float64(out.BytesAfter)/float64(out.BytesBefore)
	}
	return out, nil
}

// Table2Result is the banking index-creation experiment (paper Table II).
type Table2Result struct {
	IndexesAdded                                  int
	BytesAdded                                    int64
	SummarizationTpsBefore, SummarizationTpsAfter float64
	WithdrawalTpsBefore, WithdrawalTpsAfter       float64
	TuneMillis                                    int64
}

// Table3Row is one showcased index with template cost before/after (paper
// Table III).
type Table3Row struct {
	Index         string
	CostNoIndex   float64
	CostWithIndex float64
}

// Table2Table3BankingCreation starts from a PK-only banking database (the
// paper starts from the production default; we isolate the creation path —
// see EXPERIMENTS.md), observes both hybrid services, tunes once, and
// reports service throughput changes plus per-index cost examples.
func Table2Table3BankingCreation(seed int64, stmtsPerService int) (*Table2Result, []Table3Row, error) {
	db := engine.New()
	l := banking.NewLoader(seed)
	if err := l.Load(db); err != nil {
		return nil, nil, err
	}

	m := autoindex.New(db, autoindex.Options{MCTS: defaultMCTS(seed), RoundTimeout: RoundTimeout})

	summ := l.SummarizationService(stmtsPerService)
	withd := l.WithdrawalService(stmtsPerService)

	m.Attach()
	sumBefore := harness.Run(db, summ)
	wdBefore := harness.Run(db, withd)
	m.Detach()

	_, bytesBefore := secondaryIndexStats(db.Catalog())
	start := time.Now()
	rec, applyRep, err := m.Tune(context.Background())
	if err != nil {
		return nil, nil, err
	}
	tune := time.Since(start)
	_, bytesAfter := secondaryIndexStats(db.Catalog())

	sumAfter := harness.Run(db, l.SummarizationService(stmtsPerService))
	wdAfter := harness.Run(db, l.WithdrawalService(stmtsPerService))

	t2 := &Table2Result{
		IndexesAdded:           len(applyRep.Created),
		BytesAdded:             bytesAfter - bytesBefore,
		SummarizationTpsBefore: sumBefore.Throughput(),
		SummarizationTpsAfter:  sumAfter.Throughput(),
		WithdrawalTpsBefore:    wdBefore.Throughput(),
		WithdrawalTpsAfter:     wdAfter.Throughput(),
		TuneMillis:             tune.Milliseconds(),
	}

	// Table III: each created index's marginal contribution inside the final
	// configuration — cost with the full set vs. with that index removed.
	// (Measuring inside the set keeps correlated pairs honest.)
	var t3 []Table3Row
	w := m.TemplateStore().Workload()
	full, err := m.Estimator().WorkloadCost(w, rec.Create)
	if err != nil {
		return nil, nil, err
	}
	for i, spec := range rec.Create {
		if len(t3) >= 5 {
			break
		}
		without := make([]*catalog.IndexMeta, 0, len(rec.Create)-1)
		without = append(without, rec.Create[:i]...)
		without = append(without, rec.Create[i+1:]...)
		c, err := m.Estimator().WorkloadCost(w, without)
		if err != nil {
			return nil, nil, err
		}
		t3 = append(t3, Table3Row{Index: spec.Key(), CostNoIndex: c, CostWithIndex: full})
	}
	return t2, t3, nil
}
