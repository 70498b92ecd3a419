package main

import (
	"math"
	"math/rand"
	"strings"

	"repro/internal/autoindex"
	"repro/internal/engine"
	"repro/internal/mcts"
	"repro/internal/session"
	"repro/internal/workload/banking"
	"repro/internal/workload/tpcc"
	"repro/internal/workload/tpcds"
)

// nominalSeconds is the -seconds value the round counts below are sized
// for; other values scale the number of rounds, never their length (a
// round's statistics are a function of database state, so rounds are fixed
// and never adaptive).
const nominalSeconds = 20

// stepKind names what one entry of a lifecycle script does.
type stepKind int

const (
	// stepWarm runs the clients' streams untimed.
	stepWarm stepKind = iota
	// stepMeasure is one measured round: every client runs its stream.
	stepMeasure
	// stepCycle is one `during` cycle: a tuning round beside client 0,
	// followed by an untimed reset to the pre-round index set.
	stepCycle
	// stepFinal is the quiet round: no foreground traffic, guardrail
	// attached, output probes immediately before and after.
	stepFinal
	// stepBoundary is an incremental round beside client 0 whose result is
	// kept (tpcc_drift2's epoch boundaries).
	stepBoundary
)

// step is one entry of a workload's lifecycle script. Streams are generated
// during setup, in script order, from the one seeded loader.
type step struct {
	kind    stepKind
	phase   string     // "warm", "before", "during", "after"
	clients [][]string // one statement stream per foreground client
	// guard attaches the guardrail ahead of a stepBoundary round (the quiet
	// final round always runs under it).
	guard bool
}

// roundStyle selects the calls a tuning round makes.
type roundStyle int

const (
	// roundCreate: Recommend → Apply.
	roundCreate roundStyle = iota
	// roundPrune: PruneRecommendation → ApplyDrops → Recommend → Apply.
	roundPrune
	// roundIncremental: CloseWindow → Recommend → Apply → Decay(0.3, 0.5).
	roundIncremental
)

// instance is one set-up workload: a loaded engine behind a session layer
// with an attached AutoIndex manager, plus every statement it will run.
type instance struct {
	def    *workloadDef
	seed   int64
	db     *engine.DB
	sm     *session.Manager
	mgr    *autoindex.Manager
	script []step
	// probes are the SELECTs whose results must not depend on the index set.
	probes []string
	// replay is one extra `after`-shaped round for the traced statement
	// replay (fresh ids, so replayed inserts do not collide).
	replay []string
}

// workloadDef declares one benchmark workload.
type workloadDef struct {
	name  string
	why   string
	style roundStyle
	// planted reports whether the traced run plants the bad
	// stock(s_ytd, s_order_cnt) index for the guardrail revert (TPC-C only).
	planted bool
	setup   func(def *workloadDef, seed int64, seconds float64, mini bool) (*instance, error)
}

var workloadDefs = []*workloadDef{
	{
		name:    "tpcc_std",
		why:     "OLTP with writes on TPC-C100x (fits the pool): after tuning a statement is ~25us, so parse/observe/plan/probe are the statement; the round is ~90% online build",
		style:   roundCreate,
		planted: true,
		setup:   setupTPCCStd,
	},
	{
		name:  "tpcds_scan",
		why:   "analytic read-only TPC-DS set on a 256-frame pool smaller than the data: scans, joins, aggregates and CLOCK eviction dominate; parse/plan are <5%, so a plan cache must show no change",
		style: roundCreate,
		setup: setupTPCDSScan,
	},
	{
		name:  "banking_prune",
		why:   "259 default indexes (paper Fig. 1): writes maintain 259 trees before and 4 after; the round is index removal, >95% search (prune, what-if, MCTS), almost no build",
		style: roundPrune,
		setup: setupBankingPrune,
	},
	{
		name:    "tpcc_drift2",
		why:     "paper Fig. 9 drifting mix on TPC-C10x with a writer and a reader client through one session manager: reader-lock parallelism, writer waits and Observe's mutex are contended; rounds are incremental",
		style:   roundIncremental,
		planted: true,
		setup:   setupTPCCDrift2,
	},
}

func findWorkload(name string) *workloadDef {
	for _, d := range workloadDefs {
		if d.name == name {
			return d
		}
	}
	return nil
}

// scaled scales a nominal round count by seconds/nominalSeconds with a
// floor; the miniature lifecycle of the tests runs one round of each.
func scaled(nominal, floor int, seconds float64, mini bool) int {
	if mini {
		return 1
	}
	n := int(math.Round(float64(nominal) * seconds / nominalSeconds))
	if n < floor {
		n = floor
	}
	return n
}

// mctsConfig is the search configuration every experiment of the repo
// uses. The search seed is a setting of the tuner, not an input of the
// workload: deriving it from -seed made seed-to-seed spread a measure of
// MCTS's sensitivity to its own seed (5 to 7 indexes on tpcds_scan, two
// final sets 13% apart in cost on banking_prune), not of the layers.
func mctsConfig() mcts.Config {
	return mcts.Config{Iterations: 400, Rollouts: 5, Seed: 1, EarlyStopRounds: 120}
}

// attach wraps a loaded engine in the serving stack the lifecycle drives:
// session layer, manager tuning through it, observer attached (SQL2Template
// on the statement path is what a user of this system pays).
func attach(def *workloadDef, seed int64, db *engine.DB) *instance {
	sm := session.New(db, session.Options{Seed: seed})
	mgr := autoindex.New(db, autoindex.Options{MCTS: mctsConfig()})
	mgr.UseSessions(sm)
	mgr.Attach()
	return &instance{def: def, seed: seed, db: db, sm: sm, mgr: mgr}
}

func flatten(txns [][]string) []string {
	n := 0
	for _, t := range txns {
		n += len(t)
	}
	out := make([]string, 0, n)
	for _, t := range txns {
		out = append(out, t...)
	}
	return out
}

func isSelect(sql string) bool { return strings.HasPrefix(sql, "SELECT") }

func selectsOf(stmts []string) []string {
	var out []string
	for _, s := range stmts {
		if isSelect(s) {
			out = append(out, s)
		}
	}
	return out
}

// seededProbes picks n distinct SELECTs from a stream, in stream order.
func seededProbes(stream []string, n int, seed int64) []string {
	sel := selectsOf(stream)
	if len(sel) <= n {
		return sel
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(sel))[:n]
	picked := make(map[int]bool, n)
	for _, i := range idx {
		picked[i] = true
	}
	out := make([]string, 0, n)
	for i, s := range sel {
		if picked[i] {
			out = append(out, s)
		}
	}
	return out
}

// single wraps one stream as a one-client step.
func single(kind stepKind, phase string, stream []string) step {
	return step{kind: kind, phase: phase, clients: [][]string{stream}}
}

func setupTPCCStd(def *workloadDef, seed int64, seconds float64, mini bool) (*instance, error) {
	scale, beforeTxns, cycleTxns, afterTxns, replayTxns := 100, 200, 150, 3000, 500
	if mini {
		scale, beforeTxns, cycleTxns, afterTxns, replayTxns = 1, 20, 20, 20, 20
	}
	db := engine.New()
	l := tpcc.NewLoader(tpcc.Scale(scale), seed)
	if err := l.Load(db); err != nil {
		return nil, err
	}
	inst := attach(def, seed, db)
	gen := func(n int) []string { return flatten(l.Transactions(n, tpcc.StandardMix())) }
	inst.script = append(inst.script, single(stepWarm, "warm", gen(beforeTxns)))
	for i := 0; i < scaled(4, 1, seconds, mini); i++ {
		inst.script = append(inst.script, single(stepMeasure, "before", gen(beforeTxns)))
	}
	for i := 0; i < scaled(4, 2, seconds, mini); i++ {
		inst.script = append(inst.script, single(stepCycle, "during", gen(cycleTxns)))
	}
	inst.script = append(inst.script, step{kind: stepFinal})
	for i := 0; i < scaled(6, 3, seconds, mini); i++ {
		inst.script = append(inst.script, single(stepMeasure, "after", gen(afterTxns)))
	}
	inst.replay = gen(replayTxns)
	inst.probes = seededProbes(inst.replay, 50, seed)
	return inst, nil
}

func setupTPCDSScan(def *workloadDef, seed int64, seconds float64, mini bool) (*instance, error) {
	roundPasses, cyclePasses := 12, 1
	if mini {
		roundPasses, cyclePasses = 1, 1
	}
	// 933 data pages against 256 frames: the working set is larger than the
	// program's own cache, so CLOCK evicts on every scan.
	db, err := engine.NewWithConfig(engine.Config{BufferPoolPages: 256})
	if err != nil {
		return nil, err
	}
	if err := tpcds.NewLoader(seed).Load(db); err != nil {
		return nil, err
	}
	inst := attach(def, seed, db)
	var pass []string
	for i, q := range tpcds.QuerySet() {
		if !mini || i%8 == 0 {
			pass = append(pass, q.SQL)
		}
	}
	gen := func(passes int) []string {
		out := make([]string, 0, passes*len(pass))
		for i := 0; i < passes; i++ {
			out = append(out, pass...)
		}
		return out
	}
	inst.script = append(inst.script, single(stepWarm, "warm", gen(1)))
	for i := 0; i < scaled(2, 1, seconds, mini); i++ {
		inst.script = append(inst.script, single(stepMeasure, "before", gen(roundPasses)))
	}
	for i := 0; i < scaled(7, 2, seconds, mini); i++ {
		inst.script = append(inst.script, single(stepCycle, "during", gen(cyclePasses)))
	}
	inst.script = append(inst.script, step{kind: stepFinal})
	for i := 0; i < scaled(3, 3, seconds, mini); i++ {
		inst.script = append(inst.script, single(stepMeasure, "after", gen(roundPasses)))
	}
	inst.replay = gen(1)
	inst.probes = pass
	return inst, nil
}

func setupBankingPrune(def *workloadDef, seed int64, seconds float64, mini bool) (*instance, error) {
	withdrawals, summaries := 1500, 200
	if mini {
		withdrawals, summaries = 60, 10
	}
	db := engine.New()
	l := banking.NewLoader(seed)
	if err := l.Load(db); err != nil {
		return nil, err
	}
	if _, err := l.InstallDefaultIndexes(db); err != nil {
		return nil, err
	}
	inst := attach(def, seed, db)
	// One unit is the paper's service mix: seeded withdrawals, then the
	// summarization reports. The reports are a fixed set, like tpcds_scan's
	// query set, drawn once from a constant-seed generator: their date
	// ranges decide both the heavy tail of a round (a range is empty for
	// about half of all draws) and — because the estimator prices a
	// template against its most recent literal sample — whether d_txn_date
	// is worth keeping. Seeded reports made the final index set, and every
	// `after` metric with it, bimodal in the seed, and made the cycles
	// recommend different sets.
	// A measured round is two units: 40 reports per template leave a
	// round's throughput and tail too noisy.
	reports := banking.NewLoader(1).SummarizationService(summaries)
	gen := func(units int) []string {
		var out []string
		for i := 0; i < units; i++ {
			out = append(out, l.WithdrawalService(withdrawals)...)
			out = append(out, reports...)
		}
		return out
	}
	inst.script = append(inst.script, single(stepWarm, "warm", gen(1)))
	for i := 0; i < scaled(6, 1, seconds, mini); i++ {
		inst.script = append(inst.script, single(stepMeasure, "before", gen(2)))
	}
	for i := 0; i < scaled(5, 2, seconds, mini); i++ {
		inst.script = append(inst.script, single(stepCycle, "during", gen(1)))
	}
	inst.script = append(inst.script, step{kind: stepFinal})
	for i := 0; i < scaled(8, 3, seconds, mini); i++ {
		inst.script = append(inst.script, single(stepMeasure, "after", gen(2)))
	}
	inst.replay = gen(1)
	inst.probes = seededProbes(inst.replay, 50, seed)
	return inst, nil
}

func setupTPCCDrift2(def *workloadDef, seed int64, seconds float64, mini bool) (*instance, error) {
	scale, roundTxns, readerTxns, chunkTxns := 10, 700, 500, 300
	if mini {
		scale, roundTxns, readerTxns, chunkTxns = 1, 20, 20, 20
	}
	db := engine.New()
	l := tpcc.NewLoader(tpcc.Scale(scale), seed)
	if err := l.Load(db); err != nil {
		return nil, err
	}
	inst := attach(def, seed, db)
	writer := func(n int, mix tpcc.Mix) []string { return flatten(l.Transactions(n, mix)) }
	// Client R runs only the SELECTs of a read-heavy stream, so the writer
	// alone determines the final state.
	reader := func() []string { return selectsOf(flatten(l.Transactions(readerTxns, tpcc.ReadHeavyMix()))) }
	round := func(phase string, mix tpcc.Mix) step {
		return step{kind: stepMeasure, phase: phase, clients: [][]string{writer(roundTxns, mix), reader()}}
	}
	inst.script = append(inst.script, single(stepWarm, "warm", writer(roundTxns, tpcc.StandardMix())))
	for i := 0; i < scaled(4, 1, seconds, mini); i++ {
		inst.script = append(inst.script, round("before", tpcc.StandardMix()))
	}
	// The paper's Fig. 9 drift, twice over: every epoch opens with an
	// incremental round beside the writer. The last round lands inside the
	// closing standard epoch, so at least three guardrail windows follow
	// it. Seven boundary rounds, because tune_round_ms is their median and
	// they are a few milliseconds each.
	epochs := []struct {
		mix    tpcc.Mix
		rounds int
	}{
		{tpcc.WriteHeavyMix(), scaled(2, 1, seconds, mini)},
		{tpcc.ReadHeavyMix(), scaled(2, 1, seconds, mini)},
		{tpcc.StandardMix(), scaled(2, 1, seconds, mini)},
		{tpcc.WriteHeavyMix(), scaled(2, 1, seconds, mini)},
		{tpcc.ReadHeavyMix(), scaled(2, 1, seconds, mini)},
		{tpcc.StandardMix(), scaled(2, 1, seconds, mini)},
		{tpcc.StandardMix(), scaled(4, 3, seconds, mini)},
	}
	for i, e := range epochs {
		boundary := single(stepBoundary, "during", writer(chunkTxns, e.mix))
		// The guardrail judges an apply against the cost measured before it,
		// so across a change of mix it measures the mix: attached from the
		// first boundary it reverted good indexes at every write-heavy epoch
		// and the rounds rebuilt them, on a trajectory that forked on the
		// seed. It is attached where the mix stays the same.
		boundary.guard = i == len(epochs)-1
		inst.script = append(inst.script, boundary)
		for i := 0; i < e.rounds; i++ {
			inst.script = append(inst.script, round("after", e.mix))
		}
	}
	inst.replay = writer(roundTxns, tpcc.StandardMix())
	inst.probes = seededProbes(inst.replay, 50, seed)
	return inst, nil
}
