// Package lint hosts the project's analyzer suite: six project-specific
// static checks that keep the AutoIndex pipeline deterministic
// (mapiterorder, seededrand), its cost arithmetic hygienic (floatcosteq),
// its observability hooks safe to detach (nilsafeobs), its tuning path
// cancellable (ctxfirst) and its session locks free of re-entry
// (sessionlock, which walks the whole-program call graph analysis.Program
// builds, across packages). Invariants the type system can carry are left
// to it: engine.Reader keeps mutation out of the reader lock, session.ErrCode
// admits no integer, bufferpool.WithPage cannot leak a pin. What a test can
// carry is left to tests: the chaos tables pin that build and revert errors
// keep their cause, and the loadgen suite under -race pins its worker
// bookkeeping. The suite runs over the real tree in `go test` via
// selfcheck_test.go, which is also the CI lint step; analyzer semantics are
// pinned by analysistest fixtures under testdata/src, and testdata/typeerrors
// holds the violations the types now reject. No comment suppresses a
// finding: a finding is fixed, or the rule is changed.
package lint

import (
	"repro/internal/lint/analysis"
)

// All returns the full analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapIterOrder,
		NilSafeObs,
		FloatCostEq,
		SeededRand,
		CtxFirst,
		SessionLock,
	}
}

// scopes is the one table that says which packages (by import-path base)
// each analyzer covers. An analyzer that applies a rule to a narrower set
// than the analyzer itself has a second row, "<analyzer>/<rule>". Analyzers
// absent from the table (nilsafeobs, sessionlock) run everywhere. Bringing a
// new package under the suite is an edit here and nowhere else.
var scopes = map[string][]string{
	// The tune/apply path: every tuning round flows Tune → diagnose →
	// candgen → MCTS → estimate → apply through these, and the
	// deadline/cancellation contract only holds if the round's context
	// reaches each layer. Entry points (cmd/*, examples, experiments) sit
	// above the path and legitimately mint context.Background. session is
	// on the path too: online index builds thread the round's context
	// through snapshot/catchup loops, and a minted Background there would
	// make a cancelled tuning round keep building. guardrail reverts run
	// ApplyDrops under the session Exclusive seam; RevertOutcome must thread
	// the caller's context into it.
	"ctxfirst": {"autoindex", "mcts", "diagnosis", "candgen", "costmodel", "session", "guardrail"},

	// Cost/benefit arithmetic, where two independently-computed float64
	// costs must never be compared with ==/!=.
	"floatcosteq": {"costmodel", "mcts"},

	// The recommendation path, where map iteration order must never
	// influence output: candidate generation, search, cost estimation,
	// diagnosis, and the pipeline glue.
	"mapiterorder": {"candgen", "mcts", "costmodel", "diagnosis", "autoindex"},

	// Stochastic or estimation logic: any randomness there must flow from
	// an explicitly seeded *rand.Rand so a run is reproducible from its
	// config. session draws build-retry jitter (an unseeded source would
	// make retry schedules, and thus chaos-test outcomes, irreproducible);
	// bufferpool's eviction choices feed deterministic physical counters, so
	// a randomized policy must be seeded; guardrail draws revert-retry
	// backoff jitter, and verdicts must be a deterministic function of
	// (seed, measured series).
	"seededrand": {"mcts", "costmodel", "candgen", "diagnosis", "hypo", "baseline", "autoindex", "loadgen", "session", "bufferpool", "guardrail"},

	// The pure-estimation packages where wall-clock time must never appear
	// at all: costs are deterministic cost units, and time.Now() there is
	// either a smuggled seed or a nondeterministic input. (autoindex and
	// baseline legitimately measure wall-clock durations for reporting and
	// are exempt from the time.Now ban, but not the rand one.)
	"seededrand/timenow": {"mcts", "costmodel", "candgen", "diagnosis", "hypo"},
}

// inTargets reports whether the package is in the named scope. Matching on
// the import path's base segment lets analysistest fixtures (packages under
// testdata/src/<analyzer>/<base>) exercise the same code paths as the real
// repro/internal/<base> packages.
func inTargets(pkgPath, scope string) bool {
	base := analysis.PathBase(pkgPath)
	for _, b := range scopes[scope] {
		if b == base {
			return true
		}
	}
	return false
}
