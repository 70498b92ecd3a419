// Package loadgen is a seeded, deterministic open-loop load generator for
// the engine. It models production arrivals the way tail-latency
// benchmarking requires: a request arrives when the schedule says so —
// Poisson arrivals at a target QPS, drawn from an explicitly seeded source
// so the same seed always produces the identical schedule — regardless of
// whether earlier requests have finished. A fixed worker pool drains the
// queue; when the system falls behind, requests wait, and that wait is
// charged to them.
//
// The measured latency is scheduled-start → completion (response time),
// not dequeue → completion (service time). Closed-loop harnesses that
// issue the next request only after the previous one returns silently
// stretch the arrival schedule under load — the "coordinated omission"
// trap — and report the latency of a workload that never ran. Here the
// schedule is fixed up front, so queueing delay shows up in p95/p99
// exactly as a real client would experience it. Both distributions are
// recorded (loadgen_response_seconds vs loadgen_service_seconds); their
// gap is the queueing the closed loop would have hidden.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/session"
)

// Executor runs one statement. Implementations must be safe for concurrent
// use by the worker pool.
type Executor interface {
	Exec(sql string) error
}

// DBExecutor adapts the engine to the concurrent worker pool through the
// session layer: SELECT/EXPLAIN statements from different workers run in
// parallel under the shared reader lock while writes serialize behind the
// exclusive lock, so lock waits on writes are real response time.
type DBExecutor struct {
	sessions *session.Manager
}

// NewSessionExecutor targets a session manager; benchrunner shares one with
// the tuner so foreground traffic and online index builds contend on the
// same locks.
func NewSessionExecutor(sm *session.Manager) *DBExecutor {
	return &DBExecutor{sessions: sm}
}

// Exec runs one statement under the appropriate session lock.
func (e *DBExecutor) Exec(sql string) error {
	_, err := e.sessions.Exec(sql)
	return err
}

// scheduleCap bounds a single schedule (runaway qps×duration guard).
const scheduleCap = 1 << 21

// Schedule returns the deterministic arrival-time offsets for one run:
// exponential inter-arrival gaps with mean 1/qps (a Poisson process),
// drawn from rand.New(rand.NewSource(seed)). Generation stops at the
// horizon (if positive), at maxN arrivals (if positive), or at an internal
// safety cap, whichever comes first. The same (seed, qps, horizon, maxN)
// always yields the identical schedule — replaying a run replays its exact
// arrival pattern.
func Schedule(seed int64, qps float64, horizon time.Duration, maxN int) []time.Duration {
	if qps <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	var at time.Duration
	for {
		if maxN > 0 && len(out) >= maxN {
			break
		}
		if len(out) >= scheduleCap {
			break
		}
		gap := time.Duration(rng.ExpFloat64() / qps * float64(time.Second))
		at += gap
		if horizon > 0 && at > horizon {
			break
		}
		out = append(out, at)
	}
	return out
}

// Config sizes one load-generator run.
type Config struct {
	Seed        int64         // arrival-schedule seed
	QPS         float64       // target offered rate (required, > 0)
	Duration    time.Duration // schedule horizon (this or MaxRequests required)
	MaxRequests int           // optional cap on arrivals
	Workers     int           // fixed pool size (default 4)
	// Statements is the workload template stream; arrival i executes
	// Statements[i % len(Statements)], so the statement mix is as
	// deterministic as the schedule.
	Statements []string
	// Registry, when set, receives loadgen_* instruments: request/error
	// counters and log-spaced response- and service-time histograms.
	Registry *obs.Registry
}

// Result summarizes one run. Latency quantiles are exact (computed from
// the full sorted sample, not bucketed): response time is scheduled-start →
// completion and includes every queueing delay.
type Result struct {
	Requests                 int
	Errors                   int
	Duration                 time.Duration // first scheduled arrival → last completion
	OfferedQPS               float64       // scheduled arrivals per scheduled second
	AchievedQPS              float64       // completions per wall second
	Mean, P50, P95, P99, Max time.Duration
	// ServiceP50 is the median execute-only (dequeue → completion) time;
	// the gap to P50/P99 above is the queueing a closed-loop harness would
	// have hidden.
	ServiceP50 time.Duration
}

func (r *Result) String() string {
	return fmt.Sprintf(
		"requests=%d errors=%d wall=%v offered=%.1f/s achieved=%.1f/s p50=%v p95=%v p99=%v max=%v service_p50=%v",
		r.Requests, r.Errors, r.Duration.Round(time.Millisecond), r.OfferedQPS, r.AchievedQPS,
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Max.Round(time.Microsecond), r.ServiceP50.Round(time.Microsecond))
}

// Run executes one open-loop run: a dispatcher releases requests at the
// seeded schedule's instants (never re-anchoring when the system lags —
// that is the open loop), a fixed pool of workers executes them, and every
// request's response time is measured from its *scheduled* start. Run
// blocks until all dispatched requests complete or ctx is cancelled;
// cancellation stops dispatching and discards queued-but-unstarted
// requests, returning the stats gathered so far.
func Run(ctx context.Context, exec Executor, cfg Config) (*Result, error) {
	if exec == nil {
		return nil, errors.New("loadgen: nil executor")
	}
	if cfg.QPS <= 0 {
		return nil, errors.New("loadgen: QPS must be > 0")
	}
	if cfg.Duration <= 0 && cfg.MaxRequests <= 0 {
		return nil, errors.New("loadgen: need Duration or MaxRequests")
	}
	if len(cfg.Statements) == 0 {
		return nil, errors.New("loadgen: empty statement stream")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	schedule := Schedule(cfg.Seed, cfg.QPS, cfg.Duration, cfg.MaxRequests)
	if len(schedule) == 0 {
		return nil, errors.New("loadgen: empty schedule (horizon shorter than first arrival?)")
	}

	reqTotal := cfg.Registry.Counter("loadgen_requests_total", "Load-generator requests completed")
	errTotal := cfg.Registry.Counter("loadgen_errors_total", "Load-generator requests that returned an error")
	respHist := cfg.Registry.Histogram("loadgen_response_seconds",
		"Scheduled-start to completion response time (coordinated-omission-safe)",
		obs.LogBuckets(1e-6, 10, 5))
	svcHist := cfg.Registry.Histogram("loadgen_service_seconds",
		"Dequeue to completion service time (excludes queueing)",
		obs.LogBuckets(1e-6, 10, 5))

	type request struct {
		idx       int
		scheduled time.Time
	}
	reqCh := make(chan request, len(schedule))

	start := time.Now()
	var wg sync.WaitGroup
	perWorker := make([][]time.Duration, workers)
	perWorkerSvc := make([][]time.Duration, workers)
	errCounts := make([]int, workers)
	done := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for req := range reqCh {
				if ctx.Err() != nil {
					return
				}
				execStart := time.Now()
				err := exec.Exec(cfg.Statements[req.idx%len(cfg.Statements)])
				now := time.Now()
				if err != nil {
					errCounts[w]++
					errTotal.Inc()
				}
				resp := now.Sub(req.scheduled)
				if resp < 0 {
					resp = 0
				}
				perWorker[w] = append(perWorker[w], resp)
				perWorkerSvc[w] = append(perWorkerSvc[w], now.Sub(execStart))
				done[w]++
				reqTotal.Inc()
				respHist.Observe(resp.Seconds())
				svcHist.Observe(now.Sub(execStart).Seconds())
			}
		}(w)
	}

	// Dispatcher: release each arrival at its scheduled instant. A lagging
	// dispatch is sent immediately without shifting later arrivals.
dispatch:
	for i, off := range schedule {
		if d := time.Until(start.Add(off)); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-ctx.Done():
				timer.Stop()
				break dispatch
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break dispatch
		}
		reqCh <- request{idx: i, scheduled: start.Add(off)}
	}
	close(reqCh)
	wg.Wait()
	wall := time.Since(start)

	var latencies, service []time.Duration
	res := &Result{}
	for w := 0; w < workers; w++ {
		latencies = append(latencies, perWorker[w]...)
		service = append(service, perWorkerSvc[w]...)
		res.Errors += errCounts[w]
		res.Requests += done[w]
	}
	res.Duration = wall
	if last := schedule[len(schedule)-1]; last > 0 {
		res.OfferedQPS = float64(len(schedule)-1) / last.Seconds()
	}
	if wall > 0 {
		res.AchievedQPS = float64(res.Requests) / wall.Seconds()
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		res.Mean = sum / time.Duration(len(latencies))
		res.P50 = Percentile(latencies, 0.50)
		res.P95 = Percentile(latencies, 0.95)
		res.P99 = Percentile(latencies, 0.99)
		res.Max = latencies[len(latencies)-1]
		res.ServiceP50 = Percentile(service, 0.50)
	}
	if ctx.Err() != nil && res.Requests < len(schedule) {
		return res, ctx.Err()
	}
	return res, nil
}

// Percentile returns the q-th percentile of durations by nearest-rank on a
// sorted copy (exact, not interpolated; q clamped to [0,1]).
func Percentile(durations []time.Duration, q float64) time.Duration {
	if len(durations) == 0 {
		return 0
	}
	sorted := durations
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
		sorted = append([]time.Duration(nil), durations...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
