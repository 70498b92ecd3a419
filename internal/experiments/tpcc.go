package experiments

import (
	"context"

	"repro/internal/autoindex"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/workload/tpcc"
)

// Fig5Result holds the Fig. 5(a–f) rows for one TPC-C scale: latency and
// throughput for Default, Greedy and AutoIndex.
type Fig5Result struct {
	Scale   int
	Results []MethodResult
}

// Fig5Params sizes the experiment.
type Fig5Params struct {
	Scale    int
	WarmTxns int // observation/tuning window
	EvalTxns int // measured window
	Seed     int64
	Budget   int64
}

// DefaultFig5Params returns the standard sizes for one scale.
func DefaultFig5Params(scale int) Fig5Params {
	return Fig5Params{Scale: scale, WarmTxns: 150, EvalTxns: 400, Seed: 7}
}

// Fig5TPCC runs the three methods on TPC-C at one scale (Fig. 5 reports
// scales 1, 10 and 100).
func Fig5TPCC(p Fig5Params) (*Fig5Result, error) {
	res, err := warmThenEval(p,
		defaultArm,
		greedyArm(baseline.GreedyOptions{Budget: p.Budget, AtomicOnly: true}),
		autoIndexArm("AutoIndex", autoindex.Options{Budget: p.Budget, MCTS: defaultMCTS(p.Seed)}))
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Scale: p.Scale, Results: res}, nil
}

// warmThenEval gives each method its own identically-seeded TPC-C database
// and workload stream: the warm stream is one phase, after which the eval
// stream is measured.
func warmThenEval(p Fig5Params, methods ...method) ([]MethodResult, error) {
	var out []MethodResult
	for _, newArm := range methods {
		db, _, warm, eval, err := freshTPCC(p)
		if err != nil {
			return nil, err
		}
		a := newArm(db)
		_, tune, err := a.phase(warm)
		if err != nil {
			return nil, err
		}
		out = append(out, a.result(harness.Run(db, eval), tune))
	}
	return out, nil
}

// freshTPCC loads a database and generates the warm/eval statement streams.
func freshTPCC(p Fig5Params) (*engine.DB, *tpcc.Loader, []string, []string, error) {
	db := engine.New()
	l := tpcc.NewLoader(tpcc.Scale(p.Scale), p.Seed)
	if err := l.Load(db); err != nil {
		return nil, nil, nil, nil, err
	}
	warm := harness.Flatten(l.Transactions(p.WarmTxns, tpcc.StandardMix()))
	eval := harness.Flatten(l.Transactions(p.EvalTxns, tpcc.StandardMix()))
	return db, l, warm, eval, nil
}

// Table1Row is one added index with its estimated cost reduction.
type Table1Row struct {
	Method string
	Index  string
	// CostReduction is the index's marginal estimated benefit as a fraction
	// of the query cost it optimizes (the paper's "cost ↓").
	CostReduction float64
}

// Table1AddedIndexes reproduces Table I: the indexes AutoIndex adds beyond
// Greedy, with their cost reductions. The paper runs this on TPC-C1x; our
// row counts are scaled down ~100x from the official kit, so scale 10 here
// matches the paper's 1x data volume best (tables must be large enough that
// composite indexes beat scans at all).
func Table1AddedIndexes(seed int64) ([]Table1Row, error) {
	p := DefaultFig5Params(10)
	p.WarmTxns = 400
	p.Seed = seed

	db, _, warm, _, err := freshTPCC(p)
	if err != nil {
		return nil, err
	}
	m := autoindex.New(db, autoindex.Options{MCTS: defaultMCTS(seed), RoundTimeout: RoundTimeout})
	m.Attach()
	harness.Run(db, warm)
	w := m.TemplateStore().Workload()

	var rows []Table1Row

	// Greedy selection.
	est, gen := newGreedyTools(db)
	gres, err := baseline.Greedy(est, gen, w, nil, baseline.GreedyOptions{AtomicOnly: true})
	if err != nil {
		return nil, err
	}
	for i, spec := range gres.Selected {
		frac := 0.0
		if gres.BaseCost > 0 {
			frac = gres.PerIndexBenefit[i] / gres.BaseCost
		}
		rows = append(rows, Table1Row{Method: "Greedy", Index: spec.Key(), CostReduction: frac})
	}

	// AutoIndex selection with per-index marginal benefits.
	rec, err := m.Recommend(context.Background())
	if err != nil {
		return nil, err
	}
	for _, spec := range rec.Create {
		b, err := m.Estimator().Benefit(w, nil, spec)
		if err != nil {
			return nil, err
		}
		frac := 0.0
		if rec.BaseCost > 0 {
			frac = b / rec.BaseCost
		}
		rows = append(rows, Table1Row{Method: "AutoIndex", Index: spec.Key(), CostReduction: frac})
	}
	return rows, nil
}

// Fig9Epoch is one epoch of the dynamic-workload experiment.
type Fig9Epoch struct {
	Epoch   int
	Mix     string
	Results []MethodResult
}

// Fig9Dynamic reproduces Fig. 9: a TPC-C stream whose mix shifts across
// epochs; AutoIndex re-tunes at each epoch boundary (the paper tunes every
// five minutes), Greedy tunes once on the first epoch, Default never.
func Fig9Dynamic(seed int64, txnsPerEpoch int) ([]Fig9Epoch, error) {
	mixes := []struct {
		name string
		mix  tpcc.Mix
	}{
		{"standard", tpcc.StandardMix()},
		{"write-heavy", tpcc.WriteHeavyMix()},
		{"read-heavy", tpcc.ReadHeavyMix()},
		{"standard", tpcc.StandardMix()},
		// The second standard epoch exposes adaptation lag: a round that
		// still weights the read-heavy epoch keeps its extras.
		{"standard", tpcc.StandardMix()},
	}

	methods := []method{
		defaultArm,
		greedyArm(baseline.GreedyOptions{AtomicOnly: true}),
		autoIndexArm("AutoIndex", autoindex.Options{MCTS: defaultMCTS(seed)}),
		// Forecast mode (paper §IV-C): tuning rounds weight templates by
		// their EWMA trend instead of their decayed cumulative counts.
		autoIndexArm("AutoIndex+F", autoindex.Options{MCTS: defaultMCTS(seed), UseForecast: true}),
	}
	// Every arm's database is loaded by an identically seeded loader, so
	// each loader would generate the same stream: the last one serves all.
	var l *tpcc.Loader
	arms := make([]*arm, len(methods))
	for i, newArm := range methods {
		db := engine.New()
		l = tpcc.NewLoader(1, seed)
		if err := l.Load(db); err != nil {
			return nil, err
		}
		arms[i] = newArm(db)
	}

	var out []Fig9Epoch
	for e, mx := range mixes {
		ep := Fig9Epoch{Epoch: e + 1, Mix: mx.name}
		stmts := harness.Flatten(l.Transactions(txnsPerEpoch, mx.mix))
		for _, a := range arms {
			run, tune, err := a.phase(stmts)
			if err != nil {
				return nil, err
			}
			ep.Results = append(ep.Results, a.result(run, tune))
		}
		out = append(out, ep)
	}
	return out, nil
}

// Fig10Budget is one storage-budget row of Fig. 10.
type Fig10Budget struct {
	Label   string
	Budget  int64
	Results []MethodResult
}

// Fig10StorageBudgets reproduces Fig. 10 on TPC-C100x-style data: AutoIndex
// vs Greedy under shrinking storage budgets. Budgets scale with our reduced
// data volume; labels mirror the paper's {no limit, 150M, 100M, 50M}.
func Fig10StorageBudgets(seed int64, scale int) ([]Fig10Budget, error) {
	p := DefaultFig5Params(scale)
	p.Seed = seed

	// Calibrate budgets to the dataset: the paper's 150M/100M/50M on ~1G
	// data map proportionally onto our index sizes.
	dbProbe, _, warmProbe, _, err := freshTPCC(p)
	if err != nil {
		return nil, err
	}
	mProbe := autoindex.New(dbProbe, autoindex.Options{MCTS: defaultMCTS(seed), RoundTimeout: RoundTimeout})
	mProbe.Attach()
	harness.Run(dbProbe, warmProbe)
	recProbe, err := mProbe.Recommend(context.Background())
	if err != nil {
		return nil, err
	}
	var fullBytes int64
	for _, c := range recProbe.Create {
		fullBytes += c.SizeBytes
	}
	if fullBytes == 0 {
		fullBytes = 1 << 20
	}

	budgets := []Fig10Budget{
		{Label: "no-limit", Budget: 0},
		{Label: "150M-equiv", Budget: fullBytes * 3 / 4},
		{Label: "100M-equiv", Budget: fullBytes / 2},
		{Label: "50M-equiv", Budget: fullBytes / 4},
	}

	for bi := range budgets {
		b := &budgets[bi]
		b.Results, err = warmThenEval(p,
			greedyArm(baseline.GreedyOptions{Budget: b.Budget, AtomicOnly: true}),
			autoIndexArm("AutoIndex", autoindex.Options{Budget: b.Budget, MCTS: defaultMCTS(seed)}))
		if err != nil {
			return nil, err
		}
	}
	return budgets, nil
}
