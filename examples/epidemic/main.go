// Epidemic walkthrough: the paper's Figure-2 running example end to end.
// Three workload phases with different index requirements hit the same
// table; AutoIndex incrementally adds and removes indexes as the phases
// shift, showing the incremental-index-management loop in action.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/autoindex"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mcts"
	"repro/internal/workload/epidemic"
)

func main() {
	db := engine.New()
	loader := epidemic.NewLoader(7)
	if err := loader.Load(db); err != nil {
		log.Fatal(err)
	}
	mgr := autoindex.New(db, autoindex.Options{
		MCTS: mcts.Config{Iterations: 120, Seed: 7},
	})
	// Attached, the manager observes every DML statement the engine executes.
	mgr.Attach()

	phase := func(name string, stmts []string) {
		fmt.Printf("\n--- %s (%d statements) ---\n", name, len(stmts))
		run := harness.Run(db, stmts)
		fmt.Printf("executed: cost=%.1f errors=%d\n", run.TotalCost, run.Errors)

		rec, _, err := mgr.Tune(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		for _, spec := range rec.Create {
			fmt.Printf("  + CREATE INDEX ON %s %v\n", spec.Table, spec.Columns)
		}
		for _, name := range rec.Drop {
			fmt.Printf("  - DROP INDEX %s\n", name)
		}
		if len(rec.Create) == 0 && len(rec.Drop) == 0 {
			fmt.Println("  (no index changes)")
		}
		listIndexes(db)
	}

	// W1: the table holds early records; the workload is random reads on
	// temperature and community. Expect: idx on temperature, idx on community.
	phase("W1: random read queries", loader.W1(300))

	// Phase change: decay the template history so W1's read templates stop
	// dominating the compressed workload.
	mgr.TemplateStore().Decay(0.01, 0.5)

	// W2: the epidemic spreads; the workload is insert-heavy. Expect: the
	// community index is dropped (maintenance > benefit), the temperature
	// index survives (the monitoring reads keep paying for it).
	phase("W2: insert-heavy spread phase", loader.W2(600))

	mgr.TemplateStore().Decay(0.01, 0.5)

	// W3: the epidemic is controlled; temperatures are refreshed by
	// (name, community) and fever lookups continue. Expect: a multi-column
	// index on (name, community) appears.
	phase("W3: update-heavy monitoring phase", loader.W3(400))
}

func listIndexes(db *engine.DB) {
	fmt.Print("  indexes now: ")
	for _, m := range db.Catalog().Indexes(false) {
		fmt.Printf("%s ", m.Name)
	}
	fmt.Println()
}
