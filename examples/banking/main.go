// Banking scenario: the paper's Fig.-1 / Table-II production case. A
// 144-table schema arrives hand-over-indexed (hundreds of secondary
// indexes); AutoIndex observes the live withdrawal and summarization
// services, bulk-prunes the dead weight, refines with tree search, and the
// services get faster while most of the index storage is returned.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/autoindex"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mcts"
	"repro/internal/workload/banking"
)

func main() {
	db := engine.New()
	loader := banking.NewLoader(11)
	fmt.Println("loading 144-table banking schema...")
	if err := loader.Load(db); err != nil {
		log.Fatal(err)
	}
	created, err := loader.InstallDefaultIndexes(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed the hand-crafted default configuration: %d secondary indexes\n", created)

	mgr := autoindex.New(db, autoindex.Options{
		MCTS: mcts.Config{Iterations: 150, Seed: 11, EarlyStopRounds: 40},
	})
	db.ResetUsage()

	// Run the two services while AutoIndex observes: attached, the manager
	// sees every DML statement the engine executes.
	mgr.Attach()
	runW := harness.Run(db, loader.WithdrawalService(800))
	runS := harness.Run(db, loader.SummarizationService(400))
	fmt.Printf("baseline: withdraw tps=%.3f, summarization tps=%.3f\n",
		runW.Throughput(), runS.Throughput())

	nBefore, bytesBefore := indexFootprint(db)
	fmt.Printf("before tuning: %d secondary indexes, %d bytes\n", nBefore, bytesBefore)

	// Bulk prune: unused indexes whose removal is cost-neutral or better.
	ctx := context.Background()
	w := mgr.TemplateStore().Workload()
	drops, err := mgr.PruneRecommendation(ctx, w)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mgr.ApplyDrops(ctx, drops); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bulk prune removed %d indexes\n", len(drops))

	// Tree-search refinement over the survivors plus fresh candidates.
	_, rep, err := mgr.Tune(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refinement: +%d indexes, -%d indexes\n", len(rep.Created), len(rep.Dropped))

	nAfter, bytesAfter := indexFootprint(db)
	fmt.Printf("after tuning: %d secondary indexes, %d bytes (removed %.0f%%, saved %.0f%% storage)\n",
		nAfter, bytesAfter,
		100*(1-float64(nAfter)/float64(nBefore)),
		100*(1-float64(bytesAfter)/float64(bytesBefore)))

	// Re-measure both services.
	afterW := harness.Run(db, loader.WithdrawalService(800))
	afterS := harness.Run(db, loader.SummarizationService(400))
	fmt.Printf("after: withdraw tps=%.3f (%+.1f%%), summarization tps=%.3f (%+.1f%%)\n",
		afterW.Throughput(), 100*(afterW.Throughput()/runW.Throughput()-1),
		afterS.Throughput(), 100*(afterS.Throughput()/runS.Throughput()-1))
}

func indexFootprint(db *engine.DB) (int, int64) {
	n, bytes := 0, int64(0)
	for _, m := range db.Catalog().Indexes(false) {
		if m.IsPrimary() {
			continue
		}
		n++
		bytes += m.SizeBytes
	}
	return n, bytes
}
