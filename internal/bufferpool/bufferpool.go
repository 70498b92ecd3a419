// Package bufferpool is the physical page-cache layer fronting the storage
// heaps: a fixed set of frames, pin/unpin reference counts, and CLOCK
// (second-chance) eviction. The pool is strictly an accounting layer in this
// simulated engine — tuples still live in the heaps — but it models which
// pages would be memory-resident, and its hit/miss/eviction counters are the
// *physical* IO signal. The *logical* per-statement charges in
// storage.IOCounter are untouched by the pool: they are the cost model's
// training ground truth and must not depend on cache state.
//
// Concurrency: one mutex serializes all frame-table operations. Reader
// sessions share the pool, so with a capacity large enough that nothing is
// evicted the counters are a pure function of the page-touch multiset
// (misses = distinct pages, hits = touches - misses) — interleaving cannot
// change them, which is what lets bufferpool_* counters live in committed
// bench snapshots.
package bufferpool

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
)

// DefaultCapacity is the default frame count: 64Ki pages ≈ 512MB at the
// simulated 8KB page size, far above any experiment's working set, so
// default-configured runs never evict and their counters stay deterministic
// under concurrency (see the package comment).
const DefaultCapacity = 1 << 16

// PageID names one cached page: Table is the id a heap was registered
// under, Page the page number within that heap.
type PageID struct {
	Table int32
	Page  int32
}

func (id PageID) String() string { return fmt.Sprintf("%d:%d", id.Table, id.Page) }

// frame is one buffer slot. ref is the CLOCK second-chance bit; pins > 0
// exempts the frame from eviction.
type frame struct {
	id   PageID
	pins int32
	ref  bool
}

// Stats is a point-in-time copy of the pool's counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Resident  int
	Pinned    int
	Capacity  int
}

// Manager is the buffer-pool frame table. The zero value is not usable; use
// NewManager. All methods are safe for concurrent use and are no-ops on a
// nil receiver, so an unpooled heap costs one pointer check per page touch.
type Manager struct {
	mu       sync.Mutex
	capacity int
	byID     map[PageID]*frame
	clock    []*frame
	hand     int
	pinned   int // frames with pins > 0, for the gauge

	hits, misses, evictions int64
	// lastWasHit reports whether the most recent touchLocked resolved to a
	// resident frame; valid only while the mutex is still held.
	lastWasHit bool

	metrics *poolMetrics
	faults  *fault.Injector
}

// poolMetrics mirrors the counters into an obs registry when Instrument is
// called; nil keeps the hot path at plain integer bumps.
type poolMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	resident  *obs.Gauge
	pinned    *obs.Gauge
	capacity  *obs.Gauge
}

// NewManager creates a pool with the given frame capacity; zero or negative
// means DefaultCapacity.
func NewManager(capacity int) *Manager {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Manager{capacity: capacity, byID: make(map[PageID]*frame)}
}

// Instrument mirrors the pool's counters into bufferpool_* instruments on
// reg (nil detaches). Attach before first use: obs counters only see
// activity from this point on.
func (m *Manager) Instrument(reg *obs.Registry) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if reg == nil {
		m.metrics = nil
		return
	}
	pm := &poolMetrics{
		hits:      reg.Counter("bufferpool_hits_total", "Page touches served from a resident frame"),
		misses:    reg.Counter("bufferpool_misses_total", "Page touches that had to load a frame (simulated physical read)"),
		evictions: reg.Counter("bufferpool_evictions_total", "Frames reclaimed by CLOCK eviction"),
		resident:  reg.Gauge("bufferpool_resident_pages", "Pages currently held in frames"),
		pinned:    reg.Gauge("bufferpool_pinned_pages", "Frames with a nonzero pin count"),
		capacity:  reg.Gauge("bufferpool_capacity_pages", "Configured frame capacity"),
	}
	pm.capacity.Set(float64(m.capacity))
	pm.resident.Set(float64(len(m.byID)))
	pm.pinned.Set(float64(m.pinned))
	m.metrics = pm
}

// SetFaultInjector arms (or with nil disarms) fault injection on miss and
// eviction. Injected faults surface as *fault.Error panics, unwinding with
// the pool mutex released and its state consistent.
func (m *Manager) SetFaultInjector(in *fault.Injector) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults = in
}

// Stats returns a copy of the counters (zero value on a nil pool).
func (m *Manager) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Hits:      m.hits,
		Misses:    m.misses,
		Evictions: m.evictions,
		Resident:  len(m.byID),
		Pinned:    m.pinned,
		Capacity:  m.capacity,
	}
}

// WithPage runs fn with id pinned: resident and held against eviction. The
// pin is released on every exit, including a fault panicking out of fn.
// Returns fn's result; on a nil pool it just runs fn.
func (m *Manager) WithPage(id PageID, fn func() bool) bool {
	m.Pin(id)
	defer m.Unpin(id)
	return fn()
}

// Pin makes id resident (loading a frame, evicting if the pool is full) and
// holds it against eviction until the matching Unpin. Returns whether the
// page was already resident. Product code pins through WithPage, which
// cannot leak a pin; Pin and Unpin stay exported for the benchmark harness,
// which measures one pair on a resident page.
func (m *Manager) Pin(id PageID) (hit bool) {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.touchLocked(id)
	f.pins++
	if f.pins == 1 {
		m.pinned++
		if m.metrics != nil {
			m.metrics.pinned.Set(float64(m.pinned))
		}
	}
	return m.lastWasHit
}

// Unpin releases one pin on id. Unpinning a page that is not pinned is an
// invariant violation and panics (recovered at the statement boundary like
// any internal error).
func (m *Manager) Unpin(id PageID) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.byID[id]
	if f == nil || f.pins <= 0 {
		panic(fmt.Sprintf("bufferpool: unpin of unpinned page %v", id))
	}
	f.pins--
	if f.pins == 0 {
		m.pinned--
		if m.metrics != nil {
			m.metrics.pinned.Set(float64(m.pinned))
		}
	}
}

// Touch records a point access to id — Pin immediately followed by Unpin,
// without ever exposing a pinned frame. Returns whether it hit.
func (m *Manager) Touch(id PageID) (hit bool) {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.touchLocked(id)
	return m.lastWasHit
}

// touchLocked resolves id to a frame, loading (and possibly evicting) on a
// miss, and sets the CLOCK reference bit. m.lastWasHit reports whether the
// resolution was a hit; it is only meaningful until the mutex is released.
func (m *Manager) touchLocked(id PageID) *frame {
	if f := m.byID[id]; f != nil {
		f.ref = true
		m.hits++
		m.lastWasHit = true
		if m.metrics != nil {
			m.metrics.hits.Inc()
		}
		return f
	}
	m.misses++
	m.lastWasHit = false
	if m.metrics != nil {
		m.metrics.misses.Inc()
	}
	m.faults.MustCheck(fault.SiteBufferMiss)
	f := m.takeFrameLocked()
	f.id = id
	f.ref = true
	m.byID[id] = f
	if m.metrics != nil {
		m.metrics.resident.Set(float64(len(m.byID)))
	}
	return f
}

// takeFrameLocked returns a free frame: growing the ring while under
// capacity, otherwise running the CLOCK hand. Pinned frames are skipped;
// frames with the reference bit get a second chance. If every frame is
// pinned the ring grows past capacity rather than deadlocking — the
// overflow frame drains back through normal eviction pressure.
func (m *Manager) takeFrameLocked() *frame {
	if len(m.clock) < m.capacity {
		f := &frame{}
		m.clock = append(m.clock, f)
		return f
	}
	// Up to two full sweeps: the first clears reference bits, the second is
	// guaranteed to find any unpinned frame.
	for i := 0; i < 2*len(m.clock); i++ {
		f := m.clock[m.hand]
		m.hand = (m.hand + 1) % len(m.clock)
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		m.faults.MustCheck(fault.SiteBufferEvict)
		delete(m.byID, f.id)
		m.evictions++
		if m.metrics != nil {
			m.metrics.evictions.Inc()
		}
		return f
	}
	f := &frame{}
	m.clock = append(m.clock, f)
	return f
}
