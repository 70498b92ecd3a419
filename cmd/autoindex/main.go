// Command autoindex is the interactive advisor CLI: it loads a scenario (or
// a schema + workload file), feeds the workload through the AutoIndex
// pipeline, and prints the recommended index changes with their estimated
// benefit. Add -apply to build/drop the indexes and re-measure.
//
// Usage:
//
//	autoindex -scenario tpcc -scale 10 -budget 2000000
//	autoindex -scenario banking -apply
//	autoindex -schema schema.sql -workload queries.sql
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/autoindex"
	"repro/internal/engine"
	"repro/internal/guardrail"
	"repro/internal/harness"
	"repro/internal/mcts"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/workload/banking"
	"repro/internal/workload/epidemic"
	"repro/internal/workload/tpcc"
	"repro/internal/workload/tpcds"
)

func main() {
	scenario := flag.String("scenario", "", "built-in scenario: tpcc | tpcds | banking | epidemic")
	scale := flag.Int("scale", 1, "tpcc scale (1, 10, 100)")
	schemaFile := flag.String("schema", "", "schema SQL file (one DDL statement per line)")
	workloadFile := flag.String("workload", "", "workload SQL file (one statement per line)")
	budget := flag.Int64("budget", 0, "storage budget in bytes (0 = unlimited)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	apply := flag.Bool("apply", false, "apply the recommendation and re-measure")
	stmts := flag.Int("n", 1000, "scenario workload size (statements)")
	loadSnap := flag.String("load", "", "load database snapshot instead of a scenario")
	saveSnap := flag.String("save", "", "save database snapshot after tuning")
	rounds := flag.Int("rounds", 1, "tuning rounds (each round: run workload, tune; forecast mode when > 1)")
	report := flag.Bool("report", false, "print the per-index state report each round")
	jsonReport := flag.Bool("json", false, "print state reports as JSON instead of text")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics (Prometheus text), /metrics.json and /debug/trace on this address (e.g. :9090)")
	flag.DurationVar(&roundTimeout, "round-timeout", 0,
		"deadline per tuning round's search (e.g. 500ms); on deadline the best-so-far recommendation is used, flagged degraded (0 = unbounded)")
	flag.BoolVar(&guardrailOn, "guardrail", false,
		"with -apply: stage every applied recommendation and verify it against measured cost across rounds, auto-reverting regressions (staged -> verifying -> promoted | reverted)")
	flag.IntVar(&verifyWindows, "verify-windows", guardrail.DefaultVerifyWindows,
		"guardrail minimum-sample floor: measured windows before a promote/revert verdict")
	flag.Float64Var(&regressThreshold, "regress-threshold", guardrail.DefaultRegressThreshold,
		"guardrail regression tolerance: revert when mean measured cost exceeds baseline*(1+threshold)")
	flag.Parse()
	showReport = *report
	jsonOut = *jsonReport

	if *metricsAddr != "" {
		metricsRegistry = obs.NewRegistry()
		metricsTracer = obs.NewTracer(nil) // ring only; spans served at /debug/trace
		if _, err := obs.Serve(*metricsAddr, metricsRegistry, metricsTracer); err != nil {
			fmt.Fprintln(os.Stderr, "autoindex: metrics listener:", err)
			os.Exit(1)
		}
		fmt.Printf("serving /metrics and /debug/trace on %s\n", *metricsAddr)
	}

	if err := run(*scenario, *scale, *schemaFile, *workloadFile, *budget, *seed,
		*apply, *stmts, *loadSnap, *saveSnap, *rounds); err != nil {
		fmt.Fprintln(os.Stderr, "autoindex:", err)
		os.Exit(1)
	}
}

// showReport toggles the per-round state report (set from -report).
var showReport bool

// jsonOut switches state reports to JSON (set from -json).
var jsonOut bool

// metricsRegistry / metricsTracer are set when -metrics-addr is given.
var (
	metricsRegistry *obs.Registry
	metricsTracer   *obs.Tracer
)

// roundTimeout bounds each tuning round's search (set from -round-timeout).
var roundTimeout time.Duration

// Guardrail knobs (set from -guardrail, -verify-windows, -regress-threshold).
var (
	guardrailOn      bool
	verifyWindows    int
	regressThreshold float64
)

func run(scenario string, scale int, schemaFile, workloadFile string,
	budget, seed int64, apply bool, n int, loadSnap, saveSnap string, rounds int) error {

	var db *engine.DB
	var stream []string

	if loadSnap != "" {
		var err error
		db, err = engine.LoadFile(loadSnap)
		if err != nil {
			return err
		}
		fmt.Printf("loaded snapshot %s (%d tables)\n", loadSnap, len(db.Catalog().Tables()))
		if workloadFile == "" {
			return fmt.Errorf("-load requires -workload")
		}
		var errRead error
		stream, errRead = readLines(workloadFile)
		if errRead != nil {
			return errRead
		}
		return tune(db, stream, budget, seed, apply, saveSnap, rounds)
	}

	db = engine.New()

	switch scenario {
	case "tpcc":
		l := tpcc.NewLoader(tpcc.Scale(scale), seed)
		if err := l.Load(db); err != nil {
			return err
		}
		stream = harness.Flatten(l.Transactions(n/10, tpcc.StandardMix()))
	case "tpcds":
		if err := tpcds.NewLoader(seed).Load(db); err != nil {
			return err
		}
		for _, q := range tpcds.QuerySet() {
			stream = append(stream, q.SQL)
		}
	case "banking":
		l := banking.NewLoader(seed)
		if err := l.Load(db); err != nil {
			return err
		}
		if _, err := l.InstallDefaultIndexes(db); err != nil {
			return err
		}
		stream = append(l.WithdrawalService(n/2), l.SummarizationService(n/2)...)
	case "epidemic":
		l := epidemic.NewLoader(seed)
		if err := l.Load(db); err != nil {
			return err
		}
		stream = l.W1(n)
	case "":
		if schemaFile == "" || workloadFile == "" {
			return fmt.Errorf("need -scenario, or both -schema and -workload")
		}
		if err := execFile(db, schemaFile); err != nil {
			return err
		}
		var err error
		stream, err = readLines(workloadFile)
		if err != nil {
			return err
		}
		if err := db.AnalyzeAll(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}
	return tune(db, stream, budget, seed, apply, saveSnap, rounds)
}

// tune runs the observe → diagnose → recommend (→ apply) loop for the given
// number of rounds, then optionally snapshots the database.
func tune(db *engine.DB, stream []string, budget, seed int64, apply bool,
	saveSnap string, rounds int) error {

	if rounds < 1 {
		rounds = 1
	}
	ctx := context.Background()
	mgr := autoindex.New(db, autoindex.Options{
		Budget:       budget,
		MCTS:         mcts.Config{Iterations: 200, Rollouts: 4, Seed: seed, EarlyStopRounds: 50},
		UseForecast:  rounds > 1,
		RoundTimeout: roundTimeout,
	})
	if metricsRegistry != nil {
		db.SetMetrics(metricsRegistry)
		mgr.Instrument(metricsRegistry, metricsTracer)
	}
	mgr.UseSessions(session.New(db, session.Options{Seed: seed, Registry: metricsRegistry}))
	var guard *guardrail.Controller
	if guardrailOn {
		guard = guardrail.Attach(mgr, guardrail.Config{
			Seed:             seed,
			VerifyWindows:    verifyWindows,
			RegressThreshold: regressThreshold,
			Registry:         metricsRegistry,
		})
		fmt.Printf("guardrail on: verify-windows=%d regress-threshold=%.2f\n",
			verifyWindows, regressThreshold)
	}

	var baseline float64
	for round := 1; round <= rounds; round++ {
		if rounds > 1 {
			fmt.Printf("\n===== round %d/%d =====\n", round, rounds)
		}
		fmt.Printf("executing %d workload statements (observing templates)...\n", len(stream))
		run, err := harness.RunAndObserve(db, stream, mgr.Observe)
		if err != nil {
			return err
		}
		if round == 1 {
			baseline = run.Throughput()
		}
		fmt.Printf("measured: cost=%.1f throughput=%.3f errors=%d templates=%d\n",
			run.TotalCost, run.Throughput(), run.Errors, mgr.TemplateStore().Len())
		// Feed the measured cost back: this completes the previous round's
		// predicted-vs-actual benefit record.
		mgr.ObserveMeasuredCost(run.TotalCost)
		mgr.CloseWindow()

		rep, err := mgr.Diagnose(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("diagnosis: beneficial-uncreated=%d rarely-used=%d negative=%d ratio=%.2f tuning-needed=%v\n",
			len(rep.BeneficialUncreated), len(rep.RarelyUsed), len(rep.Negative),
			rep.ProblemRatio, rep.NeedsTuning)
		if showReport {
			if err := printReport(mgr); err != nil {
				return err
			}
		}

		rec, err := mgr.Recommend(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("recommendation (%d candidates, %d evaluations, %v):\n",
			rec.CandidateCount, rec.Evaluations, rec.Duration.Round(1000000))
		if rec.Degraded {
			fmt.Println("  (degraded: round deadline hit, best-so-far result)")
		}
		if len(rec.Create) == 0 && len(rec.Drop) == 0 {
			fmt.Println("  current configuration is already good")
			continue
		}
		for _, spec := range rec.Create {
			kind := ""
			if spec.Local {
				kind = "LOCAL "
			}
			fmt.Printf("  CREATE %sINDEX ON %s (%s)  -- est. %dB\n",
				kind, spec.Table, strings.Join(spec.Columns, ", "), spec.SizeBytes)
		}
		for _, name := range rec.Drop {
			fmt.Printf("  DROP INDEX %s\n", name)
		}
		fmt.Printf("estimated workload cost: %.1f -> %.1f (benefit %.1f)\n",
			rec.BaseCost, rec.BestCost, rec.EstimatedBenefit)

		if apply {
			report, err := mgr.Apply(ctx, rec)
			if err != nil {
				if report != nil && report.RolledBack {
					fmt.Printf("apply failed, rolled back: %v\n", err)
				}
				return err
			}
			fmt.Printf("applied: %d created, %d dropped\n",
				len(report.Created), len(report.Dropped))
		}
	}

	if apply {
		after := harness.Run(db, stream)
		mgr.ObserveMeasuredCost(after.TotalCost)
		delta := 0.0
		if baseline > 0 {
			delta = (after.Throughput()/baseline - 1) * 100
		}
		fmt.Printf("\nfinal: cost=%.1f throughput=%.3f (%+.1f%% vs first round)\n",
			after.TotalCost, after.Throughput(), delta)
		if relErr, n, ok := mgr.PredictionAccuracy(); ok {
			fmt.Printf("estimator accuracy: mean relative benefit error %.2f over %d applied rounds\n",
				relErr, n)
		}
	}
	if guard != nil {
		fmt.Printf("guardrail: tracked=%d reverts=%d\n", guard.Tracked(), guard.Reverts())
		for i, o := range mgr.Outcomes() {
			if o.Lifecycle != autoindex.LifecycleNone {
				fmt.Printf("  outcome %d (round %d): %s\n", i, o.Round, o.Lifecycle)
			}
		}
	}
	if jsonOut {
		if err := printReport(mgr); err != nil {
			return err
		}
	}
	if saveSnap != "" {
		if err := db.SaveFile(saveSnap); err != nil {
			return err
		}
		fmt.Printf("snapshot saved to %s\n", saveSnap)
	}
	return nil
}

// printReport renders the state report as text or (with -json) JSON.
func printReport(mgr *autoindex.Manager) error {
	rep := mgr.Report()
	if !jsonOut {
		fmt.Print(rep.String())
		return nil
	}
	out, err := rep.JSON()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(out)
	return err
}

func execFile(db *engine.DB, path string) error {
	lines, err := readLines(path)
	if err != nil {
		return err
	}
	for _, sql := range lines {
		if _, err := db.Exec(sql); err != nil {
			return fmt.Errorf("%s: %w", sql, err)
		}
	}
	return nil
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		out = append(out, strings.TrimSuffix(line, ";"))
	}
	return out, sc.Err()
}
