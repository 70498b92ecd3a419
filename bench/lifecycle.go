package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autoindex"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/guardrail"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// run drives one instance through its lifecycle script and collects what
// the metrics are computed from. rec is nil for the untraced run.
type run struct {
	inst  *instance
	rec   *recorder
	ctx   context.Context
	epoch time.Time

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errs      []string

	before, after []roundStats
	// afterTraced / afterUntraced split the traced run's `after` rounds
	// (alternately traced and not) for bench.trace_overhead_pct.
	afterTraced, afterUntraced []roundStats
	afterCost                  float64
	afterStmts                 int64
	readerLat, writerLat       []int64
	windowNs                   []int64
	// gcAfter counts collector activity across the `after` rounds.
	gcAfter struct {
		cycles  uint32
		pauseNs uint64
	}

	tunes     []tuneResult // cycles and boundaries, in order
	duringLat []int64      // pooled latencies (ns) of samples tagged during
	stallsMs  []float64    // worst during sample per cycle
	final     *tuneResult

	ctrl *guardrail.Controller
	// guardFrom is the length of the outcome ledger when the guardrail was
	// attached: outcomes from there on are staged for verification.
	guardFrom   int
	probeBefore []string
	probeAfter  []string
	// beforeKept, when set (traced run), runs once, just ahead of the first
	// round whose result is kept (the quiet round, or tpcc_drift2's first
	// boundary): the hand-assembled tuning round lives there.
	beforeKept func() error
}

func newRun(inst *instance, rec *recorder) *run {
	return &run{inst: inst, rec: rec, ctx: context.Background(), epoch: time.Now()}
}

// op counts one attempted operation and records its failure, if any.
func (r *run) op(what string, err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail(what, err)
	}
}

func (r *run) fail(what string, err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// clientSamples is what one foreground client measured in one round.
type clientSamples struct {
	latNs   []int64
	startNs []int64 // since run epoch; filled only when the caller tags samples
	read    []bool
	cost    float64
	tuples  int64
	rows    int64
}

// execStream runs one client's stream, closed loop, through the session
// layer: the next statement is sent when the previous reply arrived.
func (r *run) execStream(stream []string, phase string, traced, wantStart bool) clientSamples {
	cs := clientSamples{latNs: make([]int64, 0, len(stream)), read: make([]bool, 0, len(stream))}
	if wantStart {
		cs.startNs = make([]int64, 0, len(stream))
	}
	rec := r.rec
	if !traced {
		rec = nil
	}
	for _, sql := range stream {
		t0 := time.Now()
		res, err := r.inst.sm.Exec(sql)
		d := time.Since(t0)
		r.attempted.Add(1)
		if err != nil {
			r.fail("exec "+sql, err)
		} else {
			cs.cost += res.Stats.ActualCost()
			cs.tuples += res.Stats.TuplesProcessed
			cs.rows += res.Stats.RowsReturned + res.Stats.RowsAffected
		}
		cs.latNs = append(cs.latNs, d.Nanoseconds())
		cs.read = append(cs.read, isSelect(sql))
		if wantStart {
			cs.startNs = append(cs.startNs, t0.Sub(r.epoch).Nanoseconds())
		}
		if rec != nil {
			rec.add(0, 0, "session.exec", phase, t0, d)
		}
	}
	return cs
}

// measureRound is one measured round: GC aligned, every client runs its
// fixed stream, the round's statistics pool all clients' samples.
func (r *run) measureRound(st step, traced bool) roundStats {
	runtime.GC()
	var gc0 runtime.MemStats
	if r.rec != nil && st.phase == "after" {
		runtime.ReadMemStats(&gc0)
		defer func() {
			var gc1 runtime.MemStats
			runtime.ReadMemStats(&gc1)
			r.gcAfter.cycles += gc1.NumGC - gc0.NumGC
			r.gcAfter.pauseNs += gc1.PauseTotalNs - gc0.PauseTotalNs
		}()
	}
	parts := make([]clientSamples, len(st.clients))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 1; i < len(st.clients); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = r.execStream(st.clients[i], st.phase, traced, false)
		}(i)
	}
	parts[0] = r.execStream(st.clients[0], st.phase, traced, false)
	wg.Wait()
	wall := time.Since(t0)
	var lat []int64
	var cost float64
	var tuples, rows int64
	for _, p := range parts {
		lat = append(lat, p.latNs...)
		cost += p.cost
		tuples, rows = tuples+p.tuples, rows+p.rows
		if r.rec != nil && st.phase == "after" {
			for i, d := range p.latNs {
				if p.read[i] {
					r.readerLat = append(r.readerLat, d)
				} else {
					r.writerLat = append(r.writerLat, d)
				}
			}
		}
	}
	rs := summarizeRound(lat, wall.Nanoseconds(), cost)
	rs.tuples, rs.rows = tuples, rows
	// One guardrail window per round; before any apply this only sets the
	// baseline the first outcome is compared against.
	w0 := time.Now()
	r.inst.mgr.ObserveMeasuredCost(rs.costPerStmt)
	wd := time.Since(w0)
	if st.phase == "after" {
		r.windowNs = append(r.windowNs, wd.Nanoseconds())
		r.rec.add(0, 0, "guardrail.window", st.phase, w0, wd)
		r.afterCost += cost
		r.afterStmts += int64(len(lat))
	}
	return rs
}

// tuneResult is one tuning round as the lifecycle saw it.
type tuneResult struct {
	startNs, endNs int64 // since run epoch
	wallMs         float64
	pruneMs        float64
	dropMs         float64
	recommendMs    float64
	applyMs        float64
	rec            *autoindex.Recommendation
	created        []string             // built by Apply
	dropped        []*catalog.IndexMeta // dropped by ApplyDrops and Apply
	catchupRows    int64
	// set is the canonical recommended Create/Drop set; shape reduces it to
	// the tables built on and the indexes dropped, which is what decides how
	// much work the round is (foreground writes move statistics between
	// cycles, so near-tied column choices on one table may differ).
	set, shape string
	ok         bool
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tune runs one round the way the workload's style says, through the
// manager's public calls. entered (may be nil) is closed once the round's
// start is stamped, just before the first call that takes the session lock.
func (r *run) tune(phase string, entered chan<- struct{}) (res tuneResult) {
	mgr, sm := r.inst.mgr, r.inst.sm
	trace := r.rec.newTrace()
	start := time.Now()
	res.startNs = start.Sub(r.epoch).Nanoseconds()
	root := r.rec.begin(0, trace, "round", phase)
	if entered != nil {
		close(entered)
	}
	defer func() {
		end := time.Now()
		r.rec.end(root)
		res.endNs = end.Sub(r.epoch).Nanoseconds()
		res.wallMs = ms(end.Sub(start))
	}()
	timed := func(name string, fn func() error) (time.Duration, bool) {
		id := r.rec.begin(root, trace, name, phase)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		r.rec.end(id)
		r.op(name, err)
		return d, err == nil
	}
	var drops []string
	if r.inst.def.style == roundPrune {
		d, ok := timed("autoindex.prune", func() error {
			// The store is fed by foreground observers: read it under the
			// exclusive lock, as the manager's own rounds do.
			var w *workload.Workload
			if err := sm.Exclusive(func(*engine.DB) error {
				w = mgr.TemplateStore().Workload()
				return nil
			}); err != nil {
				return err
			}
			var err error
			drops, err = mgr.PruneRecommendation(r.ctx, w)
			return err
		})
		res.pruneMs = ms(d)
		if !ok {
			return res
		}
		d, ok = timed("autoindex.drop", func() error {
			rep, err := mgr.ApplyDrops(r.ctx, drops)
			if rep != nil {
				res.dropped = append(res.dropped, rep.Dropped...)
			}
			return err
		})
		res.dropMs = ms(d)
		if !ok {
			return res
		}
	}
	if r.inst.def.style == roundIncremental {
		_ = sm.Exclusive(func(*engine.DB) error { mgr.CloseWindow(); return nil })
	}
	d, ok := timed("autoindex.recommend", func() error {
		var err error
		res.rec, err = mgr.Recommend(r.ctx)
		return err
	})
	res.recommendMs = ms(d)
	if !ok {
		return res
	}
	d, ok = timed("autoindex.apply", func() error {
		rep, err := mgr.Apply(r.ctx, res.rec)
		if rep != nil {
			res.created = rep.Created
			res.dropped = append(res.dropped, rep.Dropped...)
			res.catchupRows = rep.CatchupRows
		}
		return err
	})
	res.applyMs = ms(d)
	if !ok {
		return res
	}
	res.set, res.shape = canonicalSet(res.rec, drops)
	res.ok = true
	return res
}

// canonicalSet renders a round's recommended Create/Drop set in a stable
// order, and its shape: the tables built on plus the indexes dropped.
func canonicalSet(rec *autoindex.Recommendation, pruned []string) (set, shape string) {
	var create, tables []string
	for _, spec := range rec.Create {
		create = append(create, spec.Key())
		tables = append(tables, spec.Table)
	}
	sort.Strings(create)
	sort.Strings(tables)
	drop := append(append([]string(nil), pruned...), rec.Drop...)
	sort.Strings(drop)
	drops := "] drop=[" + strings.Join(drop, " ") + "]"
	return "create=[" + strings.Join(create, " ") + drops, "build on=[" + strings.Join(tables, " ") + drops
}

// taggedDuring reports whether a foreground sample that started at startNs
// belongs to the round [roundStart, roundEnd): it starts at or after the
// round's start and strictly before its end.
func taggedDuring(startNs, roundStart, roundEnd int64) bool {
	return startNs >= roundStart && startNs < roundEnd
}

// beside runs one tuning round in a tuner goroutine while client 0 executes
// its fixed stream, and tags the client's samples. The client sends its
// first statement once the round has started, so the template store the
// round reads is the same on every run.
func (r *run) beside(st step) tuneResult {
	runtime.GC()
	entered := make(chan struct{})
	var res tuneResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = r.tune(st.phase, entered)
		if r.inst.def.style == roundIncremental {
			// Workload shifts: decay template history between epochs, under
			// the lock that keeps foreground observers out of the store.
			_ = r.inst.sm.Exclusive(func(*engine.DB) error {
				r.inst.mgr.TemplateStore().Decay(0.3, 0.5)
				return nil
			})
		}
	}()
	<-entered
	cs := r.execStream(st.clients[0], st.phase, true, true)
	wg.Wait()
	var worst int64
	for i, d := range cs.latNs {
		if taggedDuring(cs.startNs[i], res.startNs, res.endNs) {
			r.duringLat = append(r.duringLat, d)
			if d > worst {
				worst = d
			}
		}
	}
	r.stallsMs = append(r.stallsMs, float64(worst)/1e6)
	r.tunes = append(r.tunes, res)
	return res
}

// reset restores the pre-round index set, untimed: what the round built is
// dropped, what it dropped is created again.
func (r *run) reset(res tuneResult) {
	if len(res.created) > 0 {
		_, err := r.inst.mgr.ApplyDrops(r.ctx, res.created)
		r.op("reset drop", err)
	}
	for _, meta := range res.dropped {
		_, err := r.inst.sm.ExecStmt(&sqlparser.CreateIndexStmt{
			Name: meta.Name, Table: meta.Table, Columns: meta.Columns, Unique: meta.Unique, Local: meta.Local,
		})
		r.op("reset create "+meta.Name, err)
	}
}

// attachGuardrail stages every later apply for verification.
func (r *run) attachGuardrail() {
	r.guardFrom = len(r.inst.mgr.Outcomes())
	r.ctrl = guardrail.Attach(r.inst.mgr, guardrail.Config{Seed: r.inst.seed})
}

// runProbes executes the probe SELECTs and renders each result. They go
// straight to the engine under the exclusive lock, past the observer, so
// checking outputs does not feed the template store.
func (r *run) runProbes() []string {
	out := make([]string, len(r.inst.probes))
	for i, sql := range r.inst.probes {
		stmt, err := sqlparser.Parse(sql)
		if err == nil {
			err = r.inst.sm.Exclusive(func(db *engine.DB) error {
				res, err := db.ExecStmt(stmt)
				if err == nil {
					out[i] = renderResult(stmt, res)
				}
				return err
			})
		}
		r.op("probe "+sql, err)
	}
	return out
}

func (r *run) runBeforeKept() error {
	hook := r.beforeKept
	r.beforeKept = nil
	if hook == nil {
		return nil
	}
	return hook()
}

// execute runs the lifecycle script.
func (r *run) execute() error {
	afterIdx := 0
	for i, st := range r.inst.script {
		// A consumed stream is released, so live_heap_mb at the end counts
		// the program's state, not the benchmark's inputs.
		r.inst.script[i].clients = nil
		switch st.kind {
		case stepWarm:
			for _, c := range st.clients {
				r.execStream(c, st.phase, false, false)
			}
		case stepMeasure:
			if st.phase == "before" {
				r.before = append(r.before, r.measureRound(st, r.rec != nil))
				continue
			}
			// The traced run alternates traced and untraced `after` rounds;
			// their throughput gap is the tracing overhead.
			traced := r.rec != nil && afterIdx%2 == 0
			rs := r.measureRound(st, traced)
			r.after = append(r.after, rs)
			if r.rec != nil {
				if traced {
					r.afterTraced = append(r.afterTraced, rs)
				} else {
					r.afterUntraced = append(r.afterUntraced, rs)
				}
			}
			afterIdx++
		case stepCycle:
			r.reset(r.beside(st))
		case stepBoundary:
			if err := r.runBeforeKept(); err != nil {
				return err
			}
			if st.guard {
				r.attachGuardrail()
			}
			r.beside(st)
		case stepFinal:
			if err := r.runBeforeKept(); err != nil {
				return err
			}
			r.attachGuardrail()
			r.probeBefore = r.runProbes()
			runtime.GC()
			res := r.tune("final", nil)
			r.final = &res
			r.probeAfter = r.runProbes()
		}
	}
	return nil
}
