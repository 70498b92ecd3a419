// Dynamic tuning loop: the paper's Fig.-9 setting. A TPC-C-style stream
// shifts its transaction mix every epoch; AutoIndex re-tunes at each epoch
// boundary, ages its template store when the workload drifts, and keeps the
// index set matched to the live mix — the incremental loop a DBA would
// otherwise run by hand.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/autoindex"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mcts"
	"repro/internal/obs"
	"repro/internal/workload/tpcc"
)

func main() {
	db := engine.New()
	loader := tpcc.NewLoader(1, 13)
	if err := loader.Load(db); err != nil {
		log.Fatal(err)
	}

	// Observability: the database's registry, which the manager reports into
	// too, plus a span tree per tuning round. The same registry/tracer pair
	// backs the /metrics and /debug/trace endpoints in cmd/autoindex; here the
	// trace goes to stderr as JSONL.
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	mgr := autoindex.New(db, autoindex.Options{
		MCTS: mcts.Config{Iterations: 120, Seed: 13, EarlyStopRounds: 40},
	})
	mgr.Instrument(obs.NewTracer(os.Stderr))
	// Attached, the manager observes every DML statement the engine executes.
	mgr.Attach()

	epochs := []struct {
		name string
		mix  tpcc.Mix
	}{
		{"standard mix", tpcc.StandardMix()},
		{"write-heavy mix", tpcc.WriteHeavyMix()},
		{"read-heavy mix", tpcc.ReadHeavyMix()},
		{"standard mix again", tpcc.StandardMix()},
	}

	for i, ep := range epochs {
		stmts := harness.Flatten(loader.Transactions(200, ep.mix))
		run := harness.Run(db, stmts)
		// Completes the previous epoch's predicted-vs-actual record.
		mgr.ObserveMeasuredCost(run.TotalCost)
		fmt.Printf("epoch %d (%s): %d stmts, cost=%.0f, throughput=%.3f\n",
			i+1, ep.name, run.Statements, run.TotalCost, run.Throughput())

		// Epoch boundary: tune against what this epoch actually ran.
		rec, rep, err := mgr.Tune(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		created, dropped := len(rep.Created), len(rep.Dropped)
		if created+dropped > 0 {
			fmt.Printf("  re-tuned: +%d/-%d indexes (estimated benefit %.0f, %d templates, %v)\n",
				created, dropped, rec.EstimatedBenefit, rec.TemplatesUsed, rec.Duration.Round(1000000))
			for _, spec := range rec.Create {
				fmt.Printf("    + %s %v\n", spec.Table, spec.Columns)
			}
			for _, name := range rec.Drop {
				fmt.Printf("    - %s\n", name)
			}
		} else {
			fmt.Println("  configuration already fits this mix")
		}

		// Let the template store drift with the workload (paper §IV-C).
		mgr.TemplateStore().Decay(0.3, 0.5)
	}

	// The canonical wrap-up: the state report (who exists, how probed) and
	// the Prometheus-style metrics page every binary can serve or dump.
	fmt.Println("\n--- state report ---")
	fmt.Print(mgr.Report().String())
	if relErr, n, ok := mgr.PredictionAccuracy(); ok {
		fmt.Printf("estimator accuracy: mean relative benefit error %.2f over %d applied rounds\n",
			relErr, n)
	}
	fmt.Println("\n--- metrics ---")
	if err := reg.WriteProm(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
