package loadgen

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/session"
)

// TestScheduleSameSeedIsIdentical is the determinism acceptance criterion:
// a fixed seed must produce the identical arrival schedule across runs.
func TestScheduleSameSeedIsIdentical(t *testing.T) {
	a := Schedule(42, 500, time.Second, 0)
	b := Schedule(42, 500, time.Second, 0)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestScheduleDifferentSeedsDiffer(t *testing.T) {
	a := Schedule(1, 500, time.Second, 0)
	b := Schedule(2, 500, time.Second, 0)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

func TestScheduleMeanInterArrival(t *testing.T) {
	const qps = 1000.0
	s := Schedule(7, qps, 0, 20000)
	if len(s) != 20000 {
		t.Fatalf("schedule length = %d, want 20000", len(s))
	}
	// Mean gap over 20k exponential draws should be within a few percent
	// of 1/qps.
	mean := s[len(s)-1].Seconds() / float64(len(s)-1)
	want := 1 / qps
	if mean < want*0.95 || mean > want*1.05 {
		t.Fatalf("mean inter-arrival %.6fs, want %.6fs ± 5%%", mean, want)
	}
	// Arrivals are monotone non-decreasing.
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("schedule not monotone at %d: %v < %v", i, s[i], s[i-1])
		}
	}
}

func TestScheduleGuards(t *testing.T) {
	if s := Schedule(1, 0, time.Second, 0); s != nil {
		t.Fatalf("qps=0 schedule = %v, want nil", s)
	}
	if s := Schedule(1, 100, 0, 10); len(s) != 10 {
		t.Fatalf("maxN-bounded schedule length = %d, want 10", len(s))
	}
}

type funcExecutor func(sql string) error

func (f funcExecutor) Exec(sql string) error { return f(sql) }

// TestCoordinatedOmissionVisible drives a ~5ms-per-request executor with one
// worker at a rate the system cannot sustain. An open-loop generator charges
// the backlog to the queued requests: response p99 must dwarf the per-request
// service time. A closed-loop (coordinated-omission) harness would report
// ~5ms here and hide the overload entirely.
func TestCoordinatedOmissionVisible(t *testing.T) {
	const service = 5 * time.Millisecond
	exec := funcExecutor(func(string) error {
		time.Sleep(service)
		return nil
	})
	res, err := Run(context.Background(), exec, Config{
		Seed:        1,
		QPS:         1000, // offered 1000/s against a ~200/s server
		MaxRequests: 120,
		Workers:     1,
		Statements:  []string{"SELECT 1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 120 {
		t.Fatalf("requests = %d, want 120", res.Requests)
	}
	if res.P99 < 10*service {
		t.Fatalf("response p99 = %v, want ≫ service time %v (queueing delay hidden?)", res.P99, service)
	}
	if res.ServiceP50 > 3*service {
		t.Fatalf("service p50 = %v, want ≈ %v", res.ServiceP50, service)
	}
	if res.P50 <= res.ServiceP50 {
		t.Fatalf("response p50 %v not above service p50 %v under overload", res.P50, res.ServiceP50)
	}
}

func TestRunRecordsMetricsAndCountsErrors(t *testing.T) {
	var n atomic.Int64
	exec := funcExecutor(func(string) error {
		if n.Add(1)%5 == 0 {
			return fmt.Errorf("synthetic failure")
		}
		return nil
	})
	reg := obs.NewRegistry()
	res, err := Run(context.Background(), exec, Config{
		Seed:        3,
		QPS:         5000,
		MaxRequests: 100,
		Workers:     4,
		Statements:  []string{"a", "b"},
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 100 || res.Errors != 20 {
		t.Fatalf("requests/errors = %d/%d, want 100/20", res.Requests, res.Errors)
	}
	snap := reg.Snapshot()
	if got, _ := snap["loadgen_requests_total"].(int64); got != 100 {
		t.Fatalf("loadgen_requests_total = %v", snap["loadgen_requests_total"])
	}
	if got, _ := snap["loadgen_errors_total"].(int64); got != 20 {
		t.Fatalf("loadgen_errors_total = %v", snap["loadgen_errors_total"])
	}
	if h := reg.LookupHistogram("loadgen_response_seconds"); h == nil || h.Count() != 100 {
		t.Fatal("loadgen_response_seconds histogram missing or miscounted")
	}
	if res.OfferedQPS <= 0 || res.AchievedQPS <= 0 {
		t.Fatalf("rates not positive: %+v", res)
	}
}

func TestRunConfigValidation(t *testing.T) {
	ok := funcExecutor(func(string) error { return nil })
	cases := []Config{
		{QPS: 0, MaxRequests: 10, Statements: []string{"x"}},
		{QPS: 100, Statements: []string{"x"}}, // no Duration or MaxRequests
		{QPS: 100, MaxRequests: 10},           // no statements
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), ok, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Run(context.Background(), nil, Config{QPS: 100, MaxRequests: 10, Statements: []string{"x"}}); err == nil {
		t.Error("nil executor accepted")
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	exec := funcExecutor(func(string) error {
		if n.Add(1) == 10 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	res, err := Run(ctx, exec, Config{
		Seed:        1,
		QPS:         200, // slow enough that cancellation lands mid-dispatch
		MaxRequests: 5000,
		Workers:     2,
		Statements:  []string{"x"},
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if res == nil || res.Requests >= 5000 {
		t.Fatalf("cancellation did not stop dispatch: %+v", res)
	}
}

// TestRunAgainstEngine is the end-to-end smoke: the generator drives a real
// engine.DB through DBExecutor and produces non-zero latency percentiles.
func TestRunAgainstEngine(t *testing.T) {
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE t (id BIGINT, k BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t (id, k) VALUES (%d, %d)", i, i%20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), NewSessionExecutor(session.New(db, session.Options{})), Config{
		Seed:        9,
		QPS:         2000,
		MaxRequests: 200,
		Workers:     4,
		Statements: []string{
			"SELECT COUNT(*) FROM t",
			"SELECT id FROM t WHERE k = 3",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 || res.Errors != 0 {
		t.Fatalf("requests/errors = %d/%d", res.Requests, res.Errors)
	}
	if res.P50 <= 0 || res.P95 < res.P50 || res.P99 < res.P95 || res.Max < res.P99 {
		t.Fatalf("percentiles not positive and ordered: %+v", res)
	}
	if res.String() == "" {
		t.Fatal("empty Result.String()")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3} // unsorted input is copied+sorted
	if got := Percentile(ds, 0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := Percentile(ds, 1.0); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
	if got := Percentile(ds, 0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if ds[0] != 5 {
		t.Fatal("Percentile mutated its unsorted input")
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v, want 0", got)
	}
}

// TestEightWorkersReadP99NotSerial is the concurrency regression guard: a
// 5ms page-read latency fault makes every SELECT's service time ≥ 5ms, so
// 48 simultaneously-scheduled reads executed serially would push the tail
// past 48 × 5ms = 240ms. With the session layer letting 8 workers read in
// parallel the makespan is ~8× smaller; the test fails if response p99
// degenerates to within 2× of the serial floor (i.e. the executor has
// regressed to one-statement-at-a-time).
func TestEightWorkersReadP99NotSerial(t *testing.T) {
	const (
		requests = 48
		perStmt  = 5 * time.Millisecond
	)
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE t (id BIGINT, k BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t (id, k) VALUES (%d, %d)", i, i%4)); err != nil {
			t.Fatal(err)
		}
	}
	db.SetFaultInjector(fault.New(1, fault.Rule{
		Site:        fault.SitePageRead,
		Kind:        fault.KindLatency,
		Probability: 1,
		Latency:     perStmt,
	}))

	sm := session.New(db, session.Options{})
	res, err := Run(context.Background(), NewSessionExecutor(sm), Config{
		Seed:        5,
		QPS:         1e6, // all arrivals effectively simultaneous
		MaxRequests: requests,
		Workers:     8,
		Statements:  []string{"SELECT COUNT(*) FROM t WHERE k = 1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != requests || res.Errors != 0 {
		t.Fatalf("requests/errors = %d/%d, want %d/0", res.Requests, res.Errors, requests)
	}
	serialFloor := time.Duration(requests) * perStmt
	if res.P99 >= serialFloor/2 {
		t.Fatalf("p99 = %v with 8 workers, ≥ half the serial floor %v: reads are serializing", res.P99, serialFloor)
	}
	if got := sm.MaxConcurrentReaders(); got < 2 {
		t.Fatalf("max concurrent readers = %d, want ≥ 2: no reader overlap observed", got)
	}
}
