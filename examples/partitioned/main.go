// Partitioned tables and index type selection: the paper's §III remark made
// concrete. The same hash-partitioned accounts table serves two workloads —
// teller lookups that always bind the partition key, and back-office scans
// by region that never do. AutoIndex picks a LOCAL index for the first
// (smaller, partition-pruned probes) and a GLOBAL one for the second
// (avoids probing all sixteen partition trees).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/autoindex"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mcts"
	"repro/internal/sqltypes"
)

func main() {
	build := func() *engine.DB {
		db := engine.New()
		must(db, `CREATE TABLE acct (id BIGINT, owner BIGINT, region BIGINT, bal DOUBLE, PRIMARY KEY (id)) PARTITION BY HASH (owner) PARTITIONS 16`)
		rows := make([]sqltypes.Tuple, 64000)
		for i := range rows {
			rows[i] = sqltypes.Tuple{
				sqltypes.NewInt(int64(i)),
				sqltypes.NewInt(int64(i % 16000)),
				sqltypes.NewInt(int64(i % 9000)),
				sqltypes.NewFloat(float64(i % 1000)),
			}
		}
		if err := db.BulkLoad("acct", rows); err != nil {
			log.Fatal(err)
		}
		if err := db.AnalyzeAll(); err != nil {
			log.Fatal(err)
		}
		return db
	}

	scenario := func(title string, queries func(i int) string) {
		fmt.Printf("\n--- %s ---\n", title)
		db := build()
		mgr := autoindex.New(db, autoindex.Options{MCTS: mcts.Config{Iterations: 200, Seed: 7}})
		var stmts []string
		for i := 0; i < 200; i++ {
			stmts = append(stmts, queries(i))
		}
		mgr.Attach()
		before := harness.Run(db, stmts)
		rec, _, err := mgr.Tune(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		for _, spec := range rec.Create {
			kind := "GLOBAL"
			if spec.Local {
				kind = "LOCAL"
			}
			fmt.Printf("AutoIndex chose: CREATE %s INDEX ON %s %v\n", kind, spec.Table, spec.Columns)
		}
		after := harness.Run(db, stmts)
		fmt.Printf("workload cost: %.0f -> %.0f (%.1fx)\n",
			before.TotalCost, after.TotalCost, before.TotalCost/after.TotalCost)
	}

	scenario("teller lookups (bind the partition key: LOCAL wins)", func(i int) string {
		return fmt.Sprintf("SELECT bal FROM acct WHERE owner = %d", (i*37)%16000)
	})
	scenario("back-office scans (miss the partition key: GLOBAL wins)", func(i int) string {
		return fmt.Sprintf("SELECT bal FROM acct WHERE region = %d", (i*53)%9000)
	})
}

func must(db *engine.DB, sql string) {
	if _, err := db.Exec(sql); err != nil {
		log.Fatalf("%s: %v", sql, err)
	}
}
