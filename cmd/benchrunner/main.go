// Command benchrunner regenerates the paper's tables and figures, and
// doubles as the perf-trajectory and open-loop load-generation front end.
//
// Usage:
//
//	benchrunner -exp fig5                              # one experiment
//	benchrunner -exp all                               # everything (minutes)
//	benchrunner -exp fig10 -seed 3                     # change the deterministic seed
//	benchrunner -exp fig5 -quick -bench-out BENCH_fig5.json   # regenerate the fig5 pin
//	benchrunner -loadgen -qps 200 -duration 5s -workers 4     # open-loop tail-latency run
//	benchrunner -loadgen -workers 8 -online-tune              # tune online under live traffic
//	benchrunner -loadgen -read-only -max-requests 2000        # deterministic counter snapshot
//
// Loadgen traffic runs through the concurrent session layer
// (internal/session): SELECTs execute in parallel under a shared reader
// lock, writes serialize, and -online-tune runs a full recommend→apply
// tuning round concurrently with the load, building the recommended indexes
// as non-blocking online builds (snapshot → bulk → catchup → publish). The
// run fails if any foreground statement errors while the build is in flight.
// -read-only filters the TPC-C stream to SELECTs so the ops counters in a
// -bench-out snapshot are independent of worker interleaving; -max-requests
// caps arrivals for a fixed-size run.
//
// Experiments: fig1, fig5, table1, fig6, fig7, table2, table3, fig8, fig9,
// fig10, estimator, q32, parttype, writeaware, gamma, drl, all.
//
// -bench-out writes a BENCH_<exp>.json pin (internal/obs BenchSnapshot):
// the run's deterministic ops counters and its statement-cost histogram,
// byte-identical for a given command and seed. scripts/product-cover.sh
// diffs a fresh pin against the committed one.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/autoindex"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/guardrail"
	"repro/internal/harness"
	"repro/internal/loadgen"
	"repro/internal/mcts"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/workload/tpcc"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment id (fig1,fig5,table1,fig6,fig7,table2,table3,fig8,fig9,fig10,estimator,q32,parttype,writeaware,gamma,drl,all)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	quick := flag.Bool("quick", false, "smaller workloads (faster, noisier)")
	traceOut := flag.String("trace-out", "",
		"write a JSONL span trace of every tuning round to this file (replayable experiment telemetry)")
	roundTimeout := flag.Duration("round-timeout", 0,
		"deadline per tuning round's search (0 = unbounded); degraded best-so-far results on expiry")
	benchOut := flag.String("bench-out", "",
		"write a BENCH_<exp>.json pin (ops counters and statement-cost histogram) to this file")
	useLoadgen := flag.Bool("loadgen", false,
		"run the open-loop load generator against a TPC-C database instead of a paper experiment")
	qps := flag.Float64("qps", 200, "loadgen: target offered rate (Poisson arrivals)")
	duration := flag.Duration("duration", 5*time.Second, "loadgen: schedule horizon")
	workers := flag.Int("workers", 4, "loadgen: fixed worker-pool size")
	scale := flag.Int("scale", 1, "loadgen: TPC-C scale factor")
	maxRequests := flag.Int("max-requests", 0, "loadgen: cap arrivals at this count (0 = duration-bounded)")
	readOnly := flag.Bool("read-only", false,
		"loadgen: filter the TPC-C stream to SELECTs (deterministic counters for -bench-out)")
	onlineTune := flag.Bool("online-tune", false,
		"loadgen: run a tuning round concurrently with the load, applying indexes as online builds")
	useGuardrail := flag.Bool("guardrail", false,
		"loadgen: guardrail acceptance mode — plant a deliberately bad index and prove the windowed controller auto-reverts it under live traffic with zero foreground failures")
	flag.Parse()
	experiments.RoundTimeout = *roundTimeout

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner: trace-out:", err)
			os.Exit(1)
		}
		w := bufio.NewWriterSize(f, 1<<20)
		// Every manager the experiments construct picks this up via
		// obs.DefaultTracer, so existing experiment code needs no plumbing.
		obs.SetDefaultTracer(obs.NewTracer(w))
		defer func() {
			_ = w.Flush()
			_ = f.Close()
		}()
	}

	// Snapshots read the process-wide registry, which every engine instance
	// and manager instruments itself into once installed (loadgen always
	// measures; experiments only when a snapshot was requested).
	if *benchOut != "" || *useLoadgen {
		obs.SetDefaultRegistry(obs.NewRegistry())
	}

	if *useLoadgen {
		o := loadgenOpts{
			seed:        *seed,
			scale:       *scale,
			qps:         *qps,
			duration:    *duration,
			workers:     *workers,
			maxRequests: *maxRequests,
			readOnly:    *readOnly,
			onlineTune:  *onlineTune,
			benchOut:    *benchOut,
		}
		if *useGuardrail {
			if err := runGuardrailLoadgen(o); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner: guardrail:", err)
				os.Exit(1)
			}
			return
		}
		if err := runLoadgen(o); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner: loadgen:", err)
			os.Exit(1)
		}
		return
	}

	runners := map[string]func(int64, bool) error{
		"fig1":       runFig1,
		"fig5":       runFig5,
		"table1":     runTable1,
		"fig6":       runFig6,
		"fig7":       runFig6, // same experiment, second view
		"table2":     runTable23,
		"table3":     runTable23,
		"fig8":       runFig8,
		"fig9":       runFig9,
		"fig10":      runFig10,
		"estimator":  runEstimator,
		"q32":        runQ32,
		"parttype":   runPartType,
		"writeaware": runWriteAware,
		"gamma":      runGamma,
		"drl":        runDRL,
	}

	if *exp == "all" {
		order := []string{"fig5", "table1", "fig6", "fig1", "table2", "fig8", "fig9", "fig10", "estimator", "q32", "parttype", "writeaware", "gamma", "drl"}
		for _, id := range order {
			if err := runners[id](*seed, *quick); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", id, err)
				os.Exit(1)
			}
		}
	} else {
		run, ok := runners[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		if err := run(*seed, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", *exp, err)
			os.Exit(1)
		}
	}
	if *benchOut != "" {
		if err := writeSnapshot(*benchOut, *exp, *seed, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner: bench-out:", err)
			os.Exit(1)
		}
	}
}

// writeSnapshot writes the pin of the run that just fed the process
// registry.
func writeSnapshot(path, exp string, seed int64, quick bool) error {
	if err := obs.BuildBenchSnapshot(exp, seed, quick, obs.DefaultRegistry()).WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("\nbench snapshot → %s\n", path)
	return nil
}

// loadgenOpts bundles the -loadgen flag set.
type loadgenOpts struct {
	seed        int64
	scale       int
	qps         float64
	duration    time.Duration
	workers     int
	maxRequests int
	readOnly    bool
	onlineTune  bool
	benchOut    string
}

// tuneOutcome carries the concurrent tuning round's result back to the
// foreground once the load finishes.
type tuneOutcome struct {
	rep *autoindex.ApplyReport
	err error
}

// runLoadgen drives the open-loop generator against a freshly loaded TPC-C
// database: seeded Poisson arrivals at -qps for -duration (or until
// -max-requests), executed by a fixed -workers pool through the concurrent
// session layer, response time measured from each request's *scheduled*
// start so queueing (coordinated omission) is charged to the tail
// percentiles. With -online-tune a recommend→apply round runs concurrently
// with the load and the recommended indexes are built online.
func runLoadgen(o loadgenOpts) error {
	header(fmt.Sprintf("Open-loop load generator — TPC-C%dx, %.0f req/s Poisson, %v, %d workers",
		o.scale, o.qps, o.duration, o.workers))
	db := engine.New()
	l := tpcc.NewLoader(tpcc.Scale(o.scale), o.seed)
	if err := l.Load(db); err != nil {
		return err
	}
	// A generous template stream; arrivals cycle through it round-robin.
	stmts := harness.Flatten(l.Transactions(500, tpcc.StandardMix()))
	if o.readOnly {
		kept := stmts[:0:0]
		for _, s := range stmts {
			if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(s)), "SELECT") {
				kept = append(kept, s)
			}
		}
		stmts = kept
		fmt.Printf("read-only stream: %d SELECT statements\n", len(stmts))
	}

	// All traffic routes through one session manager: SELECTs share the
	// reader lock, writes and index publishes serialize against it.
	sm := session.New(db, session.Options{Seed: o.seed})
	ctx := context.Background()

	var tuneCh chan tuneOutcome
	if o.onlineTune {
		mgr := autoindex.New(db, autoindex.Options{
			MCTS: mcts.Config{Iterations: 200, Rollouts: 4, Seed: o.seed, EarlyStopRounds: 50},
		})
		mgr.UseSessions(sm)
		// Observe the planned stream up front so the recommendation is a
		// deterministic function of the seed, not of arrival timing.
		for _, s := range stmts {
			if err := mgr.Observe(s); err != nil {
				return err
			}
		}
		tuneCh = make(chan tuneOutcome, 1)
		go func() {
			_, rep, err := mgr.Tune(ctx)
			tuneCh <- tuneOutcome{rep: rep, err: err}
		}()
	}

	res, err := loadgen.Run(ctx, loadgen.NewSessionExecutor(sm), loadgen.Config{
		Seed:        o.seed,
		QPS:         o.qps,
		Duration:    o.duration,
		Workers:     o.workers,
		MaxRequests: o.maxRequests,
		Statements:  stmts,
		Registry:    obs.DefaultRegistry(),
	})
	if err != nil {
		return err
	}
	fmt.Println(res)

	if tuneCh != nil {
		out := <-tuneCh
		if out.err != nil {
			return fmt.Errorf("online tune: %w", out.err)
		}
		fmt.Printf("online tune: %d created, %d dropped (catchup_rows=%d code=%s)\n",
			len(out.rep.Created), len(out.rep.Dropped), out.rep.CatchupRows, out.rep.Code)
		fmt.Printf("foreground during build: %d requests, %d failed, max concurrent readers %d\n",
			res.Requests, res.Errors, sm.MaxConcurrentReaders())
		if res.Errors > 0 {
			return fmt.Errorf("online tune: %d foreground statements failed during the run", res.Errors)
		}
	}

	if o.benchOut != "" {
		return writeSnapshot(o.benchOut, "loadgen", o.seed, false)
	}
	return nil
}

// runGuardrailLoadgen is the guardrail acceptance run: it plants a
// deliberately bad index on stock(s_ytd, s_order_cnt) — columns that only
// ever appear in UPDATE SET clauses, so the index is pure maintenance cost
// and the planner never probes it — then drives seeded Poisson traffic
// through the session layer in measured windows. The windowed controller
// must auto-revert the planted index (unused and/or regressing) while every
// foreground statement keeps succeeding; any surviving index, wrong
// lifecycle, or foreground failure fails the run.
func runGuardrailLoadgen(o loadgenOpts) error {
	header(fmt.Sprintf("Guardrail acceptance — TPC-C%dx, %.0f req/s Poisson, %v/window, %d workers",
		o.scale, o.qps, o.duration, o.workers))
	db := engine.New()
	l := tpcc.NewLoader(tpcc.Scale(o.scale), o.seed)
	if err := l.Load(db); err != nil {
		return err
	}
	stmts := harness.Flatten(l.Transactions(500, tpcc.StandardMix()))

	// One baseline window plus the verify windows; each window consumes its
	// own contiguous chunk of the statement stream so no INSERT runs twice
	// (loadgen cycles its statement list — MaxRequests = chunk length keeps
	// every statement to at most one execution).
	windows := guardrail.DefaultVerifyWindows + 1
	if len(stmts) < windows {
		return fmt.Errorf("statement stream too short: %d statements for %d windows", len(stmts), windows)
	}

	sm := session.New(db, session.Options{Seed: o.seed})
	mgr := autoindex.New(db, autoindex.Options{})
	mgr.UseSessions(sm)
	guard := guardrail.Attach(mgr, guardrail.Config{Seed: o.seed})
	ctx := context.Background()

	// Per-window measured cost comes from the engine's statement-cost
	// histogram: deltas are sampled immediately around each window's run so
	// the planted apply's own build cost is not charged to a window.
	costHist := func() (sum float64, count int64, err error) {
		h := obs.DefaultRegistry().LookupHistogram("engine_statement_cost")
		if h == nil {
			return 0, 0, fmt.Errorf("engine_statement_cost histogram not registered")
		}
		return h.Sum(), h.Count(), nil
	}

	lastCost := math.NaN()
	totalRequests, totalErrors := 0, 0
	runWindow := func(w int, chunk []string) error {
		preSum, preCount, err := costHist()
		if err != nil {
			return err
		}
		res, err := loadgen.Run(ctx, loadgen.NewSessionExecutor(sm), loadgen.Config{
			Seed:        o.seed + int64(w),
			QPS:         o.qps,
			Duration:    o.duration,
			Workers:     o.workers,
			MaxRequests: len(chunk),
			Statements:  chunk,
			Registry:    obs.DefaultRegistry(),
		})
		if err != nil {
			return err
		}
		postSum, postCount, err := costHist()
		if err != nil {
			return err
		}
		cost := lastCost
		if dc := postCount - preCount; dc > 0 {
			cost = (postSum - preSum) / float64(dc)
		}
		lastCost = cost
		totalRequests += res.Requests
		totalErrors += res.Errors
		mgr.ObserveMeasuredCost(cost)
		fmt.Printf("window %d: %d requests, %d failed, mean stmt cost %.1f\n",
			w, res.Requests, res.Errors, cost)
		return nil
	}

	chunk := len(stmts) / windows
	if err := runWindow(0, stmts[:chunk]); err != nil {
		return err
	}

	// Plant the bad index through the normal apply path so the ledger opens
	// an outcome record and the guardrail stages it.
	const planted = "ai_stock_s_ytd_s_order_cnt"
	rep, err := mgr.Apply(ctx, &autoindex.Recommendation{
		Create:           []*catalog.IndexMeta{{Table: "stock", Columns: []string{"s_ytd", "s_order_cnt"}}},
		EstimatedBenefit: 25,
	})
	if err != nil {
		return fmt.Errorf("planting bad index: %w", err)
	}
	fmt.Printf("planted bad index: %s\n", rep)

	for w := 1; w < windows; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if w == windows-1 {
			hi = len(stmts)
		}
		if err := runWindow(w, stmts[lo:hi]); err != nil {
			return err
		}
	}

	fmt.Printf("guardrail: tracked=%d reverts=%d, foreground %d requests %d failed, max concurrent readers %d\n",
		guard.Tracked(), guard.Reverts(), totalRequests, totalErrors, sm.MaxConcurrentReaders())
	if got := mgr.OutcomeLifecycle(0); got != autoindex.LifecycleReverted {
		return fmt.Errorf("planted index lifecycle = %v, want reverted", got)
	}
	if db.Catalog().Index(planted) != nil {
		return fmt.Errorf("planted index %s survived the guardrail", planted)
	}
	if totalErrors > 0 {
		return fmt.Errorf("%d foreground statements failed during the run", totalErrors)
	}
	fmt.Println("guardrail acceptance: planted index auto-reverted, zero foreground failures")
	return nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func runFig5(seed int64, quick bool) error {
	header("Fig. 5 — TPC-C latency & throughput (Default / Greedy / AutoIndex)")
	scales := []int{1, 10, 100}
	if quick {
		scales = []int{1, 10}
	}
	for _, scale := range scales {
		p := experiments.DefaultFig5Params(scale)
		p.Seed = seed
		if quick {
			p.WarmTxns, p.EvalTxns = 80, 150
		}
		res, err := experiments.Fig5TPCC(p)
		if err != nil {
			return err
		}
		fmt.Printf("TPC-C%dx:\n", scale)
		for _, r := range res.Results {
			fmt.Printf("  %s\n", r)
		}
	}
	return nil
}

func runTable1(seed int64, _ bool) error {
	header("Table I — indexes added on TPC-C1x with cost reduction")
	rows, err := experiments.Table1AddedIndexes(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-40s %s\n", "method", "index", "cost↓")
	for _, r := range rows {
		fmt.Printf("%-10s %-40s %5.1f%%\n", r.Method, r.Index, r.CostReduction*100)
	}
	return nil
}

func runFig6(seed int64, _ bool) error {
	header("Fig. 6/7 — TPC-DS per-query execution-cost reduction")
	res, err := experiments.Fig6TPCDS(seed)
	if err != nil {
		return err
	}
	fmt.Printf("indexes selected: AutoIndex=%d Greedy=%d\n", res.AutoIndexCount, res.GreedyCount)
	fmt.Printf("%-18s %10s %12s %12s %8s %8s\n", "query", "base", "autoindex", "greedy", "ai↓%", "gr↓%")
	for i := range res.AutoIndex {
		a, g := res.AutoIndex[i], res.Greedy[i]
		fmt.Printf("%-18s %10.1f %12.1f %12.1f %7.1f%% %7.1f%%\n",
			a.Query, a.BaseCost, a.TunedCost, g.TunedCost,
			a.Reduction()*100, g.Reduction()*100)
	}
	for _, thr := range []float64{0.10, 0.25, 0.50} {
		fmt.Printf("queries improved >%2.0f%%: AutoIndex=%d Greedy=%d\n",
			thr*100, experiments.ImprovedOver(res.AutoIndex, thr),
			experiments.ImprovedOver(res.Greedy, thr))
	}
	return nil
}

func runFig1(seed int64, quick bool) error {
	header("Fig. 1 — banking index removal")
	n := 1500
	if quick {
		n = 500
	}
	res, err := experiments.Fig1BankingRemoval(seed, n)
	if err != nil {
		return err
	}
	fmt.Printf("indexes:    %4d -> %4d  (removed %.0f%%)\n",
		res.IndexesBefore, res.IndexesAfter, res.RemovedFraction*100)
	fmt.Printf("storage:    %8dB -> %8dB  (saved %.0f%%)\n",
		res.BytesBefore, res.BytesAfter, res.StorageSavedFraction*100)
	fmt.Printf("throughput: %.3f -> %.3f  (%+.1f%%)\n",
		res.ThroughputBefore, res.ThroughputAfter,
		(res.ThroughputAfter/res.ThroughputBefore-1)*100)
	fmt.Printf("management: %d statements handled in %dms\n", res.StatementsManaged, res.TuneMillis)
	return nil
}

func runTable23(seed int64, quick bool) error {
	header("Table II/III — banking index creation for hybrid services")
	n := 800
	if quick {
		n = 400
	}
	t2, t3, err := experiments.Table2Table3BankingCreation(seed, n)
	if err != nil {
		return err
	}
	fmt.Printf("indexes added:        +%d (+%dB)\n", t2.IndexesAdded, t2.BytesAdded)
	fmt.Printf("summarization (tps):  %.3f -> %.3f (%+.1f%%)\n",
		t2.SummarizationTpsBefore, t2.SummarizationTpsAfter,
		(t2.SummarizationTpsAfter/t2.SummarizationTpsBefore-1)*100)
	fmt.Printf("withdrawal (tps):     %.3f -> %.3f (%+.1f%%)\n",
		t2.WithdrawalTpsBefore, t2.WithdrawalTpsAfter,
		(t2.WithdrawalTpsAfter/t2.WithdrawalTpsBefore-1)*100)
	fmt.Printf("tuning time:          %dms\n", t2.TuneMillis)
	fmt.Println("example indexes (Table III, marginal within final set):")
	for _, row := range t3 {
		fmt.Printf("  %-40s %12.1f -> %12.1f\n", row.Index, row.CostNoIndex, row.CostWithIndex)
	}
	return nil
}

func runFig8(seed int64, quick bool) error {
	header("Fig. 8 — template-based vs query-level management overhead")
	txns := 800
	if quick {
		txns = 300
	}
	res, err := experiments.Fig8TemplateOverhead(seed, txns)
	if err != nil {
		return err
	}
	fmt.Printf("statements:          %d (→ %d templates)\n", res.Statements, res.Templates)
	fmt.Printf("what-if evaluations: template=%d query-level=%d (−%.1f%%)\n",
		res.TemplateEvals, res.QueryLevelEvals, res.EvalReduction*100)
	fmt.Printf("planner invocations: template=%d query-level=%d (−%.1f%%)\n",
		res.TemplatePlans, res.QueryLevelPlans, res.PlanReduction*100)
	fmt.Printf("tuning time (wall):  template=%dms query-level=%dms (−%.1f%%)\n",
		res.TemplateTuneMs, res.QueryLevelTuneMs, res.OverheadReduction*100)
	fmt.Printf("eval workload cost:  template=%.0f query-level=%.0f (delta %.2f%%)\n",
		res.TemplateEvalCost, res.QueryEvalCost, res.PerfDelta*100)
	return nil
}

func runFig9(seed int64, quick bool) error {
	header("Fig. 9 — dynamic TPC-C workload, per-epoch performance")
	txns := 250
	if quick {
		txns = 120
	}
	epochs, err := experiments.Fig9Dynamic(seed, txns)
	if err != nil {
		return err
	}
	for _, ep := range epochs {
		fmt.Printf("epoch %d (%s):\n", ep.Epoch, ep.Mix)
		for _, r := range ep.Results {
			fmt.Printf("  %s\n", r)
		}
	}
	return nil
}

func runFig10(seed int64, quick bool) error {
	header("Fig. 10 — performance under storage budgets (TPC-C100x-style)")
	scale := 100
	if quick {
		scale = 10
	}
	budgets, err := experiments.Fig10StorageBudgets(seed, scale)
	if err != nil {
		return err
	}
	for _, b := range budgets {
		fmt.Printf("budget %s (%dB):\n", b.Label, b.Budget)
		for _, r := range b.Results {
			fmt.Printf("  %s\n", r)
		}
	}
	return nil
}

func runEstimator(seed int64, quick bool) error {
	header("Estimator — learned regression vs static weights (9-fold CV)")
	txns := 120
	if quick {
		txns = 60
	}
	res, err := experiments.EstimatorAccuracy(seed, txns)
	if err != nil {
		return err
	}
	fmt.Printf("samples: %d\n", res.Samples)
	fmt.Printf("mean relative error: learned=%.3f static=%.3f\n", res.LearnedError, res.StaticError)
	return nil
}

func runPartType(seed int64, _ bool) error {
	header("Index type selection — global vs local on a partitioned table (§III)")
	res, err := experiments.IndexTypeSelection(seed)
	if err != nil {
		return err
	}
	fmt.Printf("partition-key workload: local=%.1f global=%.1f  → AutoIndex chose %q\n",
		res.KeyWorkloadLocal, res.KeyWorkloadGlobal, res.PartitionKeyChoice)
	fmt.Printf("non-key workload:       local=%.1f global=%.1f  → AutoIndex chose %q\n",
		res.NonKeyWorkloadLocal, res.NonKeyWorkloadGlobal, res.NonKeyChoice)
	return nil
}

func runWriteAware(seed int64, _ bool) error {
	header("Ablation — write-cost-aware vs read-only estimator (epidemic W2)")
	res, err := experiments.WriteCostAwareness(seed)
	if err != nil {
		return err
	}
	fmt.Printf("measured W2 cost: index kept=%.0f dropped=%.0f (dropping is right)\n",
		res.CostKept, res.CostDropped)
	fmt.Printf("write-aware estimator drops idx_community: %v (correct)\n", res.AwareDropsCommunity)
	fmt.Printf("read-only estimator drops idx_community:   %v (wrongly keeps it)\n", res.BlindDropsCommunity)
	return nil
}

func runGamma(seed int64, _ bool) error {
	header("Ablation — MCTS exploration constant γ (correlated-pair landscape)")
	points, err := experiments.GammaSweep(seed, []float64{0.01, 0.2, 0.5, 1.4, 3.0, 6.0})
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Printf("γ=%-5.2f foundPair=%-5v bestCost=%6.0f evaluations=%d\n",
			p.Gamma, p.FoundPair, p.BestCost, p.Evaluations)
	}
	return nil
}

func runDRL(seed int64, _ bool) error {
	header("DRL comparison — MCTS vs episodic Q-learning (paper §VII)")
	res, err := experiments.DRLComparison(seed)
	if err != nil {
		return err
	}
	fmt.Printf("workload cost: base=%.0f  MCTS=%.0f  Q-learning=%.0f\n",
		res.BaseCost, res.MCTSCost, res.RLCost)
	fmt.Printf("price: MCTS %d evaluations in %dms; RL %d evaluations / %d interactions in %dms\n",
		res.MCTSEvaluations, res.MCTSMillis, res.RLEvaluations, res.RLInteractions, res.RLMillis)
	fmt.Printf("removes a planted harmful index: MCTS=%v, RL=%v (add-only action space)\n",
		res.MCTSRemovesHarmful, res.RLRemovesHarmful)
	return nil
}

func runQ32(seed int64, _ bool) error {
	header("Q32 motivation — correlated index pair (paper §III)")
	res, err := experiments.Q32Correlated(seed)
	if err != nil {
		return err
	}
	fmt.Printf("no indexes:   %10.1f\n", res.BaseCost)
	fmt.Printf("item only:    %10.1f\n", res.ItemIndexOnly)
	fmt.Printf("join only:    %10.1f\n", res.DateIndexOnly)
	fmt.Printf("both:         %10.1f\n", res.BothIndexes)
	fmt.Printf("MCTS finds the pair: %v (in %dms)\n", res.MCTSPicksPair, res.TuneMillis)
	return nil
}
