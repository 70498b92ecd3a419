// Command bench is the repository's benchmark: it drives each workload
// through one tuning lifecycle (setup → warm-up → before → during → quiet
// final round → after) against the public API only, closed loop, and
// reports what a user of an index advisor feels — foreground latency
// before, during and after a tuning round, and how long the round takes —
// plus, in a separate traced run, one set of numbers per layer.
//
//	go run ./bench -workload tpcc_std            # one workload, end to end
//	go run ./bench                               # all four
//	go run ./bench -workload tpcc_std -trace 1   # per-layer run, spans to bench/out
//	go run ./bench -agree 5                      # repeatability against BENCHMARK.json
//
// See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is everything one run of one workload reports.
type result struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Trace        bool               `json:"trace"`
	Correct      bool               `json:"correct"`
	OpsAttempted int64              `json:"ops_attempted"`
	OpsFailed    int64              `json:"ops_failed"`
	WallSeconds  float64            `json:"wall_seconds"`
	Metrics      []metric           `json:"-"`
	MetricMap    map[string]jsonVal `json:"metrics"`
	Checks       []check            `json:"checks"`
	// Info carries what explains the metrics without being one: sample
	// counts, the percentile actually supported, the recommended set.
	Info map[string]any `json:"info"`
}

type jsonVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are the knobs of one run; the flags set all but the last two,
// which only the tests change.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	mini    bool
	setups  int
}

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: tpcc_std, tpcds_scan, banking_prune, tpcc_drift2 or all")
	seed := fs.Int64("seed", 1, "seed for the loaders and the statement streams")
	seconds := fs.Float64("seconds", nominalSeconds, "measuring time the round counts are scaled to")
	trace := fs.Int("trace", 0, "1: the traced per-layer run; 0: the untraced end-to-end run")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result JSON and span JSONL")
	agree := fs.Int("agree", 0, "run two sets of N fresh-process runs per workload and compare them against BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	var defs []*workloadDef
	if *workload == "all" {
		defs = workloadDefs
	} else if def := findWorkload(*workload); def != nil {
		defs = []*workloadDef{def}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *agree > 0 {
		return agreeMain(defs, *agree, *seed, *seconds, stdout, stderr)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out, setups: 3}
	code := 0
	for _, def := range defs {
		res, err := runWorkload(def, opts)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
			return 1
		}
		if err := res.write(opts.outDir); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
			return 1
		}
		res.print(stdout)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// drive sets a workload up and runs its lifecycle script, traced or not.
func drive(def *workloadDef, opts options) (*run, *layerTrace, float64, error) {
	inst, setupS, err := setupMedian(def, opts)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	var rec *recorder
	if opts.trace {
		rec = newRecorder(1 << 18)
	}
	r := newRun(inst, rec)
	var lt *layerTrace
	if opts.trace {
		lt = newLayerTrace(r)
		r.beforeKept = lt.assembledRound
	}
	return r, lt, setupS, r.execute()
}

// runWorkload drives a workload and assembles the result: end-to-end
// metrics from the untraced run, per-layer metrics from the traced one.
func runWorkload(def *workloadDef, opts options) (*result, error) {
	wall := time.Now()
	r, lt, setupS, err := drive(def, opts)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: def.name, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace,
		Info: map[string]any{},
	}
	// Everything that reads the final state comes before anything that
	// disturbs it (layer replays, the planted revert, the drift2 drop).
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	indexBytes := secondaryIndexBytes(r.inst.db)
	res.Checks = r.stateChecks()
	r.info(res.Info)
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return nil, err
	}
	if opts.trace {
		res.Metrics = lt.metrics()
		if err := r.rec.writeJSONL(filepath.Join(opts.outDir, def.name+".spans.jsonl"), def.name); err != nil {
			return nil, err
		}
		res.Info["spans"] = len(r.rec.spans)
	} else {
		res.Metrics = r.endToEnd(setupS, indexBytes, mem.HeapAlloc)
	}
	if r.final == nil {
		res.Checks = append(res.Checks, r.checkIndexIndependence())
	}
	res.OpsAttempted, res.OpsFailed = r.attempted.Load(), r.failed.Load()
	res.Checks = append(res.Checks, check{
		Name: "ops_failed_zero", OK: res.OpsFailed == 0,
		Detail: fmt.Sprintf("%d of %d operations failed %v", res.OpsFailed, res.OpsAttempted, r.errs),
	})
	res.MetricMap = make(map[string]jsonVal, len(res.Metrics))
	for _, m := range res.Metrics {
		res.MetricMap[m.Name] = jsonVal{Value: m.Value, Unit: m.Unit}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Checks = append(res.Checks, check{Name: "metric_finite", Detail: m.Name})
		}
	}
	res.Correct = true
	for _, c := range res.Checks {
		if !c.OK {
			res.Correct = false
		}
	}
	res.WallSeconds = time.Since(wall).Seconds()
	return res, nil
}

// setupMedian sets the workload up opts.setups times, timing each, and
// keeps the last instance: setup_s is the median, so one slow allocation
// burst does not set it.
func setupMedian(def *workloadDef, opts options) (*instance, float64, error) {
	var times []float64
	var inst *instance
	for i := 0; i < opts.setups; i++ {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = def.setup(def, opts.seed, opts.seconds, opts.mini)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), nil
}

// endToEnd assembles the end-to-end metrics.
func (r *run) endToEnd(setupS float64, indexBytes int64, heapAlloc uint64) []metric {
	tuneMs := make([]float64, len(r.tunes))
	for i, t := range r.tunes {
		tuneMs[i] = t.wallMs
	}
	var costPerStmt float64
	if r.afterStmts > 0 {
		costPerStmt = r.afterCost / float64(r.afterStmts)
	}
	return []metric{
		{"setup_s", setupS, "s"},
		{"before_stmts_per_s", medianOver(r.before, func(s roundStats) float64 { return s.stmtsPerS }), "stmt/s"},
		{"before_p50_us", medianOver(r.before, func(s roundStats) float64 { return s.p50us }), "us"},
		{"tune_round_ms", median(tuneMs), "ms"},
		{"after_stmts_per_s", medianOver(r.after, func(s roundStats) float64 { return s.stmtsPerS }), "stmt/s"},
		{"after_p50_us", medianOver(r.after, func(s roundStats) float64 { return s.p50us }), "us"},
		{"after_p99_us", medianOver(r.after, func(s roundStats) float64 { return s.p99us }), "us"},
		{"after_cost_per_stmt", costPerStmt, "cost"},
		{"index_bytes", float64(indexBytes), "bytes"},
		{"live_heap_mb", float64(heapAlloc) / (1 << 20), "MiB"},
	}
}

// duringTail pools the samples tagged during over all cycles and returns
// their tail latency (us) at the highest percentile the pool supports.
func (r *run) duringTail() (float64, float64) {
	lat := append([]int64(nil), r.duringLat...)
	slices.Sort(lat)
	p := supportedTail(len(lat))
	return float64(percentile(lat, p)) / 1e3, p
}

// info records what explains the metrics.
func (r *run) info(info map[string]any) {
	_, p := r.duringTail()
	info["during_samples"] = len(r.duringLat)
	info["during_percentile"] = p
	if len(r.before) > 0 {
		info["before_round_samples"] = r.before[0].samples
	}
	if len(r.after) > 0 {
		info["after_round_samples"] = r.after[0].samples
	}
	detail := func(rounds []roundStats) []string {
		out := make([]string, len(rounds))
		for i, s := range rounds {
			out[i] = fmt.Sprintf("%.0f stmt/s p50=%.1fus p99=%.1fus cost/stmt=%.2f", s.stmtsPerS, s.p50us, s.p99us, s.costPerStmt)
		}
		return out
	}
	info["before_round_detail"] = detail(r.before)
	info["after_round_detail"] = detail(r.after)
	var sets []string
	var tuneMs []float64
	for _, t := range r.tunes {
		sets = append(sets, t.set)
		tuneMs = append(tuneMs, t.wallMs)
	}
	info["round_sets"] = sets
	info["tune_round_ms"] = tuneMs
	info["during_stall_ms"] = r.stallsMs
	if r.final != nil {
		info["final_set"] = r.final.set
	}
	var ledger []string
	for i, o := range r.inst.mgr.Outcomes() {
		ledger = append(ledger, fmt.Sprintf("%d: created=%v dropped=%d lifecycle=%s before=%.2f after=%.2f", i, o.CreatedNames, o.Dropped, o.Lifecycle, o.CostBefore, o.CostAfter))
	}
	info["ledger"] = ledger
	info["max_concurrent_readers"] = r.inst.sm.MaxConcurrentReaders()
}

// write stores the result as <out>/<workload>[.trace].json.
func (res *result) write(dir string) error {
	name := res.Workload + ".json"
	if res.Trace {
		name = res.Workload + ".trace.json"
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// print writes every metric by name with its unit, the checks, and — as the
// last line — the one-object summary the benchmark driver reads.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d trace=%v wall=%.1fs\n", res.Workload, res.Seed, res.Trace, res.WallSeconds)
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%-36s %16.4f %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-36s %16d count\n%-36s %16d count\n", "ops_attempted", res.OpsAttempted, "ops_failed", res.OpsFailed)
	for _, c := range res.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-28s %-6s %s\n", c.Name, status, c.Detail)
	}
	summary := struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]jsonVal `json:"metrics"`
	}{res.Correct, res.OpsAttempted, res.OpsFailed, res.MetricMap}
	line, _ := json.Marshal(summary)
	fmt.Fprintf(w, "%s\n", line)
}
