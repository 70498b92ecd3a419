// Quickstart: create a schema, run a workload, let AutoIndex recommend and
// apply indexes, and verify the speedup — the five-minute tour of the
// public API.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/autoindex"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mcts"
)

func main() {
	// 1. Stand up a database and load some data.
	db := engine.New()
	mustExec(db, `CREATE TABLE users (id BIGINT, country TEXT, age BIGINT, score DOUBLE, PRIMARY KEY (id))`)
	for i := 0; i < 5000; i++ {
		mustExec(db, fmt.Sprintf(
			`INSERT INTO users (id, country, age, score) VALUES (%d, 'c%d', %d, %d.5)`,
			i, i%150, 18+i%60, i%100))
	}
	if err := db.AnalyzeAll(); err != nil {
		log.Fatal(err)
	}

	// 2. Build the workload the application actually runs.
	var workload []string
	for i := 0; i < 400; i++ {
		workload = append(workload, fmt.Sprintf(
			`SELECT id, score FROM users WHERE country = 'c%d'`, i%150))
	}
	for i := 0; i < 100; i++ {
		workload = append(workload, fmt.Sprintf(
			`UPDATE users SET score = score + 1 WHERE id = %d`, i*7))
	}

	// 3. Create the AutoIndex manager and observe the workload while it runs:
	// attached, the manager sees every DML statement the engine executes.
	mgr := autoindex.New(db, autoindex.Options{
		Budget: 0, // unlimited storage
		MCTS:   mcts.Config{Iterations: 100, Seed: 1},
	})
	mgr.Attach()
	before := harness.Run(db, workload)
	mgr.Detach()
	// Report the measured cost: it becomes the baseline of the next applied
	// recommendation's predicted-vs-actual benefit record.
	mgr.ObserveMeasuredCost(before.TotalCost)
	fmt.Printf("before tuning: total cost %.1f, %d templates observed\n",
		before.TotalCost, mgr.TemplateStore().Len())

	// 4. Diagnose, then tune: recommend and apply in one round.
	ctx := context.Background()
	report, err := mgr.Diagnose(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diagnosis: %d beneficial indexes missing, tuning needed: %v\n",
		len(report.BeneficialUncreated), report.NeedsTuning)

	rec, _, err := mgr.Tune(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, spec := range rec.Create {
		fmt.Printf("recommended: CREATE INDEX ON %s %v (estimated benefit share of %.1f)\n",
			spec.Table, spec.Columns, rec.EstimatedBenefit)
	}

	// 5. Re-run and confirm: the measured cost completes the recommendation's
	// predicted-vs-actual record, and the state report summarizes the result.
	after := harness.Run(db, workload)
	mgr.ObserveMeasuredCost(after.TotalCost)
	fmt.Printf("after tuning:  total cost %.1f (%.1fx faster)\n",
		after.TotalCost, before.TotalCost/after.TotalCost)

	for _, o := range mgr.Outcomes() {
		fmt.Printf("round %d: predicted benefit %.1f, measured benefit %.1f\n",
			o.Round, o.PredictedBenefit, o.MeasuredBenefit)
	}
	fmt.Print(mgr.Report().String())
}

func mustExec(db *engine.DB, sql string) {
	if _, err := db.Exec(sql); err != nil {
		log.Fatalf("%s: %v", sql, err)
	}
}
