// Package session is the concurrent serving layer over a shared engine.DB:
// N reader sessions execute SELECT/EXPLAIN statements in parallel under a
// shared reader lock while writes and DDL serialize behind the exclusive
// lock — the single-writer discipline the engine's per-statement state
// refactor makes race-free. The same lock is the publication barrier for
// online index builds (BuildIndexOnline): a build snapshots and bulk-builds
// off to the side, replays the change log of writes that landed meanwhile,
// and publishes atomically under the exclusive lock, so every query sees
// exactly the pre-publish or post-publish index set.
//
// The locking is deliberately coarse (one RWMutex for the whole instance)
// but the API is scoped so finer-grained locking — per-table locks, MVCC
// snapshots — can land behind Exec/Read/Exclusive without touching callers.
package session

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sqlparser"
)

// Options configures a session manager.
type Options struct {
	// Seed drives the build-retry jitter (explicit seeding keeps runs
	// reproducible; zero is a valid seed).
	Seed int64
	// Registry receives session_* instruments; nil falls back to the
	// process default registry (matching engine.New), and nil-with-no-
	// default keeps the hot path uninstrumented.
	Registry *obs.Registry
}

// buildRetries bounds online-build retries on temporary errors.
const buildRetries = 2

// Manager routes statements from concurrent sessions onto one engine.DB.
type Manager struct {
	db *engine.DB
	// catchupBatch is how many change-log entries one catchup round
	// replays; tests shrink it to force many rounds.
	catchupBatch int
	// mu is the instance lock: RLock for SELECT/EXPLAIN, Lock for
	// everything that mutates heap, catalog, or index state.
	mu      sync.RWMutex
	metrics *sessionMetrics
	// buildMu serializes online index builds (one change log at a time).
	buildMu sync.Mutex
	rngMu   sync.Mutex
	rng     *rand.Rand

	activeReaders atomic.Int64
	maxReaders    atomic.Int64
	queuedWrites  atomic.Int64
}

// New wraps a database in a session manager. The DB must not be mutated
// behind the manager's back once concurrent sessions are running.
func New(db *engine.DB, opts Options) *Manager {
	if opts.Registry == nil {
		opts.Registry = obs.DefaultRegistry()
	}
	return &Manager{
		db:           db,
		catchupBatch: 256,
		metrics:      newSessionMetrics(opts.Registry),
		rng:          rand.New(rand.NewSource(opts.Seed)),
	}
}

// isRead reports whether a statement can run under the shared reader lock.
// EXPLAIN never executes its inner statement, so it reads regardless of
// what it wraps.
func isRead(stmt sqlparser.Statement) bool {
	switch stmt.(type) {
	case *sqlparser.SelectStmt, *sqlparser.ExplainStmt:
		return true
	default:
		return false
	}
}

// Exec parses and executes one statement under the appropriate lock:
// reader-shared for SELECT/EXPLAIN, exclusive for writes and DDL. Safe for
// concurrent use by any number of sessions.
func (m *Manager) Exec(sql string) (*engine.Result, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return m.execParsed(sql, stmt)
}

// ExecStmt executes an already-parsed statement under the session locks.
func (m *Manager) ExecStmt(stmt sqlparser.Statement) (*engine.Result, error) {
	return m.execParsed(stmt.String(), stmt)
}

func (m *Manager) execParsed(sql string, stmt sqlparser.Statement) (*engine.Result, error) {
	if isRead(stmt) {
		m.mu.RLock()
		n := m.activeReaders.Add(1)
		for {
			max := m.maxReaders.Load()
			if n <= max || m.maxReaders.CompareAndSwap(max, n) {
				break
			}
		}
		if m.metrics != nil {
			m.metrics.reads.Inc()
			m.metrics.activeReaders.Set(float64(n))
			m.metrics.maxReaders.Set(float64(m.maxReaders.Load()))
		}
		res, err := m.db.ExecParsed(sql, stmt)
		left := m.activeReaders.Add(-1)
		if m.metrics != nil {
			m.metrics.activeReaders.Set(float64(left))
		}
		m.mu.RUnlock()
		return res, err
	}

	m.queuedWrites.Add(1)
	if m.metrics != nil {
		m.metrics.queuedWrites.Set(float64(m.queuedWrites.Load()))
	}
	m.mu.Lock()
	queued := m.queuedWrites.Add(-1)
	if m.metrics != nil {
		m.metrics.queuedWrites.Set(float64(queued))
		m.metrics.writes.Inc()
	}
	res, err := m.db.ExecParsed(sql, stmt)
	m.mu.Unlock()
	return res, err
}

// Read runs fn holding the shared reader lock. fn receives the database's
// read-only face, so mutating it under the shared lock does not compile.
func (m *Manager) Read(fn func(r engine.Reader) error) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return fn(m.db.Reader())
}

// Exclusive runs fn holding the exclusive lock: no session statement runs
// concurrently. This is the seam tuning uses for phases that mutate the
// catalog (drops, publication) and for search rounds, which write nothing
// but price against statistics that statements update.
func (m *Manager) Exclusive(fn func(db *engine.DB) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fn(m.db)
}

// MaxConcurrentReaders returns the high-water mark of readers observed
// executing simultaneously — the concurrency proof the loadgen tests assert
// on.
func (m *Manager) MaxConcurrentReaders() int64 { return m.maxReaders.Load() }

// jitterMillis draws a seeded retry backoff in [1, 5] milliseconds.
func (m *Manager) jitterMillis() int {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return 1 + m.rng.Intn(5)
}
