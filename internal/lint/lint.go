// Package lint hosts the autoindexlint analyzer suite: project-specific
// static checks that keep the AutoIndex pipeline deterministic
// (mapiterorder, seededrand), its cost arithmetic hygienic (floatcosteq),
// and its observability hooks safe to detach (nilsafeobs). On top of the
// single-function checks, a call-graph layer (analysis.Program) powers four
// cross-function analyzers: sessionlock (session.Manager lock discipline,
// including transitive re-entrancy and engine mutation under the reader
// lock), errclass (build-path errors stay session.Classify-able),
// goroutinehygiene (background goroutines carry a stop signal; WaitGroup
// bookkeeping is panic-safe), and atomicmix (no mixed atomic/plain access
// to the same variable). pinunpin guards the buffer-pool seam: every
// Manager.Pin needs a deferred Unpin so fault panics cannot leak pins. The suite runs over the real tree in CI via
// cmd/autoindexlint and in `go test` via selfcheck_test.go; analyzer
// semantics are pinned by analysistest fixtures under testdata/src.
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
		ErrClass,
		GoroutineHygiene,
		AtomicMix,
		PinUnpin,
	}
}

// stringSet is a tiny helper for name lists.
type stringSet map[string]bool

// scopes is the one table that says which packages (by import-path base)
// each analyzer covers. An analyzer that applies a rule to a narrower set
// than the analyzer itself has a second row, "<analyzer>/<rule>". Analyzers
// absent from the table (nilsafeobs, atomicmix, pinunpin, sessionlock's
// lock rules) run everywhere. Bringing a new package under the suite is
// an edit here and nowhere else.
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

	// The packages whose build- and revert-path errors must stay
	// session.Classify-able.
	"errclass": {"session", "autoindex", "guardrail"},

	// Cost/benefit arithmetic, where two independently-computed float64
	// costs must never be compared with ==/!=.
	"floatcosteq": {"costmodel", "mcts"},

	// The packages that launch background work.
	"goroutinehygiene": {"engine", "session", "loadgen", "obs", "benchrunner", "bufferpool"},

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

	// Where sessionlock's rule 3 (no session.Manager.DB() around the
	// session-lock seams) applies. guardrail reverts catalog state through
	// the Manager, never the engine directly, so reaching for the database
	// there is a seam violation too.
	"sessionlock/db": {"autoindex", "guardrail"},
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
