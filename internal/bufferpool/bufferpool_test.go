package bufferpool

import (
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

func pid(table, page int32) PageID { return PageID{Table: table, Page: page} }

func TestTouchCountsHitsAndMisses(t *testing.T) {
	m := NewManager(4)
	if hit := m.Touch(pid(0, 0)); hit {
		t.Fatal("first touch of a page reported a hit")
	}
	if hit := m.Touch(pid(0, 0)); !hit {
		t.Fatal("second touch of a resident page reported a miss")
	}
	m.Touch(pid(0, 1))
	m.Touch(pid(1, 0)) // same page number, different table: distinct
	s := m.Stats()
	if s.Hits != 1 || s.Misses != 3 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses / 0 evictions", s)
	}
	if s.Resident != 3 {
		t.Fatalf("resident = %d, want 3", s.Resident)
	}
}

func TestPinUnpinTracksPinnedFrames(t *testing.T) {
	m := NewManager(4)
	if hit := m.Pin(pid(0, 0)); hit {
		t.Fatal("pin of a cold page reported a hit")
	}
	m.Pin(pid(0, 0)) // second pin on the same frame
	if s := m.Stats(); s.Pinned != 1 {
		t.Fatalf("pinned = %d, want 1 (pin counts frames, not pins)", s.Pinned)
	}
	m.Unpin(pid(0, 0))
	if s := m.Stats(); s.Pinned != 1 {
		t.Fatalf("pinned = %d after one of two unpins, want 1", s.Pinned)
	}
	m.Unpin(pid(0, 0))
	if s := m.Stats(); s.Pinned != 0 {
		t.Fatalf("pinned = %d after final unpin, want 0", s.Pinned)
	}
	if hit := m.Pin(pid(0, 0)); !hit {
		t.Fatal("re-pin of a resident page reported a miss")
	}
	m.Unpin(pid(0, 0))
}

func TestUnpinOfUnpinnedPanics(t *testing.T) {
	m := NewManager(4)
	m.Touch(pid(0, 0)) // resident but not pinned
	for _, id := range []PageID{pid(0, 0), pid(9, 9)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Unpin(%v) did not panic", id)
				}
			}()
			m.Unpin(id)
		}()
	}
}

func TestClockEvictsInSecondChanceOrder(t *testing.T) {
	m := NewManager(2)
	m.Touch(pid(0, 0)) // frame 0: A
	m.Touch(pid(0, 1)) // frame 1: B
	// Full pool, both ref bits set. Loading C sweeps A and B (clearing their
	// bits), comes back around, and evicts A — the least recently granted a
	// second chance.
	m.Touch(pid(0, 2))
	if m.Touch(pid(0, 1)) != true {
		t.Fatal("B was evicted; CLOCK should have evicted A")
	}
	if s := m.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if m.Touch(pid(0, 0)) {
		t.Fatal("A still resident after eviction")
	}
}

func TestEvictionSkipsPinnedFrames(t *testing.T) {
	m := NewManager(2)
	m.Pin(pid(0, 0))
	m.Touch(pid(0, 1))
	m.Touch(pid(0, 2)) // must evict page 1, never the pinned page 0
	if !m.Touch(pid(0, 0)) {
		t.Fatal("pinned page was evicted")
	}
	if m.Touch(pid(0, 1)) {
		t.Fatal("unpinned page survived while a pinned frame existed")
	}
	m.Unpin(pid(0, 0))
}

func TestWithPageUnpinsWhenFnPanics(t *testing.T) {
	m := NewManager(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("WithPage swallowed fn's panic")
			}
		}()
		m.WithPage(pid(0, 0), func() bool {
			if s := m.Stats(); s.Pinned != 1 {
				t.Errorf("pinned = %d inside fn, want 1", s.Pinned)
			}
			panic("fault through visit")
		})
	}()
	if s := m.Stats(); s.Pinned != 0 {
		t.Fatalf("pinned = %d after the panic unwound, want 0", s.Pinned)
	}
	// The frame is evictable again: one frame, so touching another page
	// must evict page 0 instead of growing the ring.
	m.Touch(pid(0, 1))
	if s := m.Stats(); s.Evictions != 1 || s.Resident != 1 {
		t.Fatalf("stats = %+v, want page 0 evicted (1 eviction, 1 resident)", s)
	}
}

func TestAllPinnedGrowsInsteadOfDeadlocking(t *testing.T) {
	m := NewManager(2)
	m.Pin(pid(0, 0))
	m.Pin(pid(0, 1))
	m.Pin(pid(0, 2)) // over capacity: the ring must grow, not spin forever
	s := m.Stats()
	if s.Resident != 3 || s.Pinned != 3 {
		t.Fatalf("stats = %+v, want 3 resident / 3 pinned", s)
	}
	if s.Evictions != 0 {
		t.Fatalf("evicted %d frames while all were pinned", s.Evictions)
	}
	for i := int32(0); i < 3; i++ {
		m.Unpin(pid(0, i))
	}
	// The overflow frame drains back through normal eviction pressure.
	m.Touch(pid(0, 3))
	if got := m.Stats().Resident; got != 3 {
		t.Fatalf("resident = %d after overflow reuse, want 3", got)
	}
}

func TestNilManagerIsInert(t *testing.T) {
	var m *Manager
	if m.Touch(pid(0, 0)) || m.Pin(pid(0, 0)) {
		t.Fatal("nil pool reported a hit")
	}
	m.Unpin(pid(0, 0)) // must not panic on nil
	m.Instrument(obs.NewRegistry())
	m.SetFaultInjector(fault.New(1))
	if s := m.Stats(); s != (Stats{}) {
		t.Fatalf("nil pool stats = %+v, want zero", s)
	}
}

// TestDefaultCapacity: a pool holds exactly its capacity, so one distinct
// page more evicts one frame; a capacity of zero or less means
// DefaultCapacity.
func TestDefaultCapacity(t *testing.T) {
	fill := func(m *Manager, pages int) Stats {
		for i := 0; i < pages; i++ {
			m.Touch(pid(0, int32(i)))
		}
		return m.Stats()
	}
	for c, want := range map[int]int{0: DefaultCapacity, -5: DefaultCapacity, 7: 7} {
		if s := fill(NewManager(c), want+1); s.Resident != want || s.Evictions != 1 {
			t.Fatalf("NewManager(%d) over %d pages: %+v, want %d resident and 1 eviction", c, want+1, s, want)
		}
	}
}

func TestInstrumentMirrorsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(2)
	m.Instrument(reg)
	m.Touch(pid(0, 0))
	m.Touch(pid(0, 0))
	m.Touch(pid(0, 1))
	m.Touch(pid(0, 2)) // eviction
	m.Pin(pid(0, 2))
	snap := reg.Snapshot()
	// The registry must mirror Stats exactly — the property under test is the
	// mirror, not the trace itself.
	s := m.Stats()
	for name, w := range map[string]int64{
		"bufferpool_hits_total":      s.Hits,
		"bufferpool_misses_total":    s.Misses,
		"bufferpool_evictions_total": s.Evictions,
	} {
		if got, _ := snap[name].(int64); got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
	for name, w := range map[string]float64{
		"bufferpool_resident_pages": float64(s.Resident),
		"bufferpool_pinned_pages":   float64(s.Pinned),
		"bufferpool_capacity_pages": float64(s.Capacity),
	} {
		if got, _ := snap[name].(float64); got != w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	m.Unpin(pid(0, 2))
}

func TestMissFaultLeavesPoolConsistent(t *testing.T) {
	m := NewManager(4)
	in := fault.New(1, fault.Rule{Site: fault.SiteBufferMiss, Kind: fault.KindIO, Nth: 1})
	m.SetFaultInjector(in)
	func() {
		defer func() {
			if _, ok := recover().(*fault.Error); !ok {
				t.Fatal("miss fault did not panic with *fault.Error")
			}
		}()
		m.Touch(pid(0, 0))
	}()
	// The miss was counted but the page never became resident; the pool must
	// keep serving after the unwind.
	s := m.Stats()
	if s.Misses != 1 || s.Resident != 0 {
		t.Fatalf("stats after miss fault = %+v, want 1 miss / 0 resident", s)
	}
	if m.Touch(pid(0, 0)) {
		t.Fatal("page resident after faulted load")
	}
}

func TestEvictFaultLeavesPoolConsistent(t *testing.T) {
	m := NewManager(1)
	in := fault.New(1, fault.Rule{Site: fault.SiteBufferEvict, Kind: fault.KindIO, Nth: 1})
	m.SetFaultInjector(in)
	m.Touch(pid(0, 0))
	func() {
		defer func() {
			if _, ok := recover().(*fault.Error); !ok {
				t.Fatal("evict fault did not panic with *fault.Error")
			}
		}()
		m.Touch(pid(0, 1))
	}()
	// The eviction was aborted before the victim left the table.
	if !m.Touch(pid(0, 0)) {
		t.Fatal("victim page gone after faulted eviction")
	}
	if s := m.Stats(); s.Evictions != 0 {
		t.Fatalf("evictions = %d after faulted eviction, want 0", s.Evictions)
	}
}

func TestConcurrentTouchesAreDeterministicWhenNotEvicting(t *testing.T) {
	// With capacity above the working set, counters are a pure function of
	// the touch multiset: misses = distinct pages, hits = touches - misses.
	m := NewManager(0)
	const workers, pages, rounds = 8, 50, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for p := int32(0); p < pages; p++ {
					m.Pin(pid(0, p))
					m.Unpin(pid(0, p))
				}
			}
		}()
	}
	wg.Wait()
	s := m.Stats()
	touches := int64(workers * pages * rounds)
	if s.Misses != pages {
		t.Fatalf("misses = %d, want %d (distinct pages)", s.Misses, pages)
	}
	if s.Hits != touches-pages {
		t.Fatalf("hits = %d, want %d", s.Hits, touches-pages)
	}
	if s.Pinned != 0 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want no residual pins or evictions", s)
	}
}
