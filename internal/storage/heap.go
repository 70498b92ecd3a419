// Package storage implements the slotted heap files that hold table data.
// Tuples live in fixed-capacity pages; every page touched by a scan or a
// point fetch is charged to an IO counter, which is the ground-truth signal
// the cost model's IO features are trained against. An attached buffer pool
// (AttachPool) additionally does physical cache accounting per page touch —
// hits, misses, evictions — without ever changing the logical charges.
package storage

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/bufferpool"
	"repro/internal/fault"
	"repro/internal/sqltypes"
)

// TuplesPerPage is how many tuples fit in one simulated heap page. With
// ~100-byte tuples this approximates an 8KB page.
const TuplesPerPage = 64

// IOCounter accumulates page-level IO for one statement or one workload
// segment. The executor owns one per statement to derive per-query costs;
// heap methods take it as an explicit parameter (nil to discard the
// charges) so concurrent statements never share a counter.
type IOCounter struct {
	HeapPagesRead     int64
	HeapPagesWritten  int64
	IndexPagesRead    int64
	IndexPagesWritten int64
}

// Reset zeroes all counters.
func (c *IOCounter) Reset() { *c = IOCounter{} }

// Add accumulates another counter into c.
func (c *IOCounter) Add(o IOCounter) {
	c.HeapPagesRead += o.HeapPagesRead
	c.HeapPagesWritten += o.HeapPagesWritten
	c.IndexPagesRead += o.IndexPagesRead
	c.IndexPagesWritten += o.IndexPagesWritten
}

type page struct {
	tuples []sqltypes.Tuple // nil entries are deleted slots
	live   int
}

// Heap is the slotted-page tuple store for one table.
type Heap struct {
	pages    []*page
	numLive  int64
	lastPage int // page with free space, for O(1) append
	// freeSlots counts tombstoned slots across all pages; freeHint is the
	// lowest page index that may still hold one. While freeSlots is zero,
	// Insert stays on the pure-append path, so append-only workloads assign
	// exactly the RIDs they always have.
	freeSlots int64
	freeHint  int
	// faults, when armed, can fail or delay page reads/writes. Nil (the
	// default) costs one pointer check per page touch.
	faults *fault.Injector
	// pool, when attached, receives one physical-cache touch per page this
	// heap reads or writes; poolTable is this heap's id inside the pool.
	// Logical IOCounter charges never depend on the pool.
	pool      *bufferpool.Manager
	poolTable int32
}

// NewHeap creates an empty heap. IO is charged to the counter each method
// call passes in.
func NewHeap() *Heap {
	return &Heap{}
}

// SetFaultInjector arms (or with nil disarms) fault injection on this heap's
// page reads and writes. Methods without an error return surface injected
// faults as *fault.Error panics; the engine statement boundary converts
// those back into errors.
func (h *Heap) SetFaultInjector(in *fault.Injector) { h.faults = in }

// AttachPool fronts this heap with a buffer pool (nil detaches). table is
// the heap's identity inside the pool — the engine assigns these in table
// creation order so page ids are deterministic.
func (h *Heap) AttachPool(pool *bufferpool.Manager, table int32) {
	h.pool = pool
	h.poolTable = table
}

// touchPage records one physical page access with the attached pool.
func (h *Heap) touchPage(pi int) {
	if h.pool != nil {
		h.pool.Touch(bufferpool.PageID{Table: h.poolTable, Page: int32(pi)})
	}
}

// NumTuples returns the count of live tuples.
func (h *Heap) NumTuples() int64 { return h.numLive }

// NumPages returns the heap page count.
func (h *Heap) NumPages() int64 { return int64(len(h.pages)) }

// Insert stores a tuple and returns its RID, reusing the lowest tombstoned
// slot when one exists and appending otherwise. Charges one page write to
// io (nil discards the charge).
func (h *Heap) Insert(t sqltypes.Tuple, io *IOCounter) btree.RID {
	if h.faults != nil {
		h.faults.MustCheck(fault.SitePageWrite)
	}
	if io != nil {
		io.HeapPagesWritten++
	}
	if h.freeSlots > 0 {
		if rid, ok := h.reuseSlot(t); ok {
			return rid
		}
	}
	if h.lastPage >= len(h.pages) || len(h.pages[h.lastPage].tuples) >= TuplesPerPage {
		h.pages = append(h.pages, &page{})
		h.lastPage = len(h.pages) - 1
	}
	p := h.pages[h.lastPage]
	p.tuples = append(p.tuples, t)
	p.live++
	h.numLive++
	h.touchPage(h.lastPage)
	return btree.RID{Page: int32(h.lastPage), Slot: int32(len(p.tuples) - 1)}
}

// reuseSlot fills the lowest tombstoned slot, advancing freeHint past pages
// it proves full (Delete moves the hint back down when it tombstones an
// earlier page). Returns false if the bookkeeping found no slot, in which
// case Insert falls back to appending.
func (h *Heap) reuseSlot(t sqltypes.Tuple) (btree.RID, bool) {
	pi := h.freeHint
	for pi < len(h.pages) && h.pages[pi].live == len(h.pages[pi].tuples) {
		pi++
	}
	h.freeHint = pi
	if pi == len(h.pages) {
		h.freeSlots = 0 // drifted bookkeeping: resync and append
		return btree.RID{}, false
	}
	p := h.pages[pi]
	for si, t0 := range p.tuples {
		if t0 == nil {
			p.tuples[si] = t
			p.live++
			h.numLive++
			h.freeSlots--
			h.touchPage(pi)
			return btree.RID{Page: int32(pi), Slot: int32(si)}, true
		}
	}
	// live < len(tuples) yet no nil slot: unreachable unless counts drift.
	h.freeSlots = 0
	return btree.RID{}, false
}

// Fetch returns the tuple at rid, charging one page read to io. Returns nil
// for deleted or out-of-range slots; an out-of-range page never touches
// storage, so it charges nothing.
func (h *Heap) Fetch(rid btree.RID, io *IOCounter) sqltypes.Tuple {
	if rid.Page < 0 || int(rid.Page) >= len(h.pages) {
		return nil
	}
	if h.faults != nil {
		h.faults.MustCheck(fault.SitePageRead)
	}
	if io != nil {
		io.HeapPagesRead++
	}
	h.touchPage(int(rid.Page))
	p := h.pages[rid.Page]
	if int(rid.Slot) >= len(p.tuples) {
		return nil
	}
	return p.tuples[rid.Slot]
}

// Update replaces the tuple at rid in place (heap-only update; index
// maintenance is the engine's responsibility). Charges a read and a write
// once the target page is known to exist.
func (h *Heap) Update(rid btree.RID, t sqltypes.Tuple, io *IOCounter) error {
	if int(rid.Page) >= len(h.pages) || int(rid.Slot) >= len(h.pages[rid.Page].tuples) {
		return fmt.Errorf("storage: update of invalid rid %v", rid)
	}
	if h.faults != nil {
		if err := h.faults.Check(fault.SitePageWrite); err != nil {
			return err
		}
	}
	if io != nil {
		io.HeapPagesRead++
		io.HeapPagesWritten++
	}
	h.touchPage(int(rid.Page))
	if h.pages[rid.Page].tuples[rid.Slot] == nil {
		return fmt.Errorf("storage: update of deleted rid %v", rid)
	}
	h.pages[rid.Page].tuples[rid.Slot] = t
	return nil
}

// Delete tombstones the tuple at rid. Charges a write once the target page
// is known to exist.
func (h *Heap) Delete(rid btree.RID, io *IOCounter) error {
	if int(rid.Page) >= len(h.pages) || int(rid.Slot) >= len(h.pages[rid.Page].tuples) {
		return fmt.Errorf("storage: delete of invalid rid %v", rid)
	}
	if h.faults != nil {
		if err := h.faults.Check(fault.SitePageWrite); err != nil {
			return err
		}
	}
	if io != nil {
		io.HeapPagesWritten++
	}
	p := h.pages[rid.Page]
	if p.tuples[rid.Slot] == nil {
		return fmt.Errorf("storage: delete of already-deleted rid %v", rid)
	}
	h.touchPage(int(rid.Page))
	p.tuples[rid.Slot] = nil
	p.live--
	h.numLive--
	h.freeSlots++
	if int(rid.Page) < h.freeHint || h.freeSlots == 1 {
		h.freeHint = int(rid.Page)
	}
	return nil
}

// Batch is one heap page handed to the vectorized executor: the page's raw
// slot array plus a selection vector of its live slots. No tuples are
// copied — Tuples aliases the page (nil entries are tombstones), and for a
// hole-free page Sel is a shared identity vector, so a batch costs zero
// allocations and zero per-tuple work to produce. ScanBatch reuses one
// Batch across pages; callers must not retain the slice headers past the
// callback and must not mutate Sel (it may be the shared identity).
type Batch struct {
	Page   int32
	Tuples []sqltypes.Tuple // the page's slot array; index with Sel entries
	Sel    []int32          // ascending slot indexes of live tuples

	selBuf []int32 // backing for Sel when the page has tombstones
}

// Len returns the number of live tuples in the batch.
func (b *Batch) Len() int { return len(b.Sel) }

// RID returns the row id of slot s (an entry of Sel).
func (b *Batch) RID(s int32) btree.RID { return btree.RID{Page: b.Page, Slot: s} }

// identitySel is the shared selection vector for pages without tombstones.
var identitySel = func() []int32 {
	s := make([]int32, TuplesPerPage)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// ScanBatch visits the heap page by page, passing each page's live tuples
// as one batch. Accounting is identical to the tuple-at-a-time Scan: one
// fault check and one logical page-read charge per page, tombstones
// skipped. Pages with no live tuples are charged but not visited. The
// callback returns false to stop early.
func (h *Heap) ScanBatch(io *IOCounter, visit func(b *Batch) bool) {
	b := &Batch{selBuf: make([]int32, 0, TuplesPerPage)}
	for pi := range h.pages {
		if !h.scanPage(pi, io, b, visit) {
			return
		}
	}
}

// scanPage prepares one page's batch and hands it to visit with the page
// pinned in the buffer pool; WithPage releases the pin on every exit path,
// including fault panics out of visit.
func (h *Heap) scanPage(pi int, io *IOCounter, b *Batch, visit func(b *Batch) bool) bool {
	if h.faults != nil {
		h.faults.MustCheck(fault.SitePageRead)
	}
	if io != nil {
		io.HeapPagesRead++
	}
	p := h.pages[pi]
	b.Page = int32(pi)
	b.Tuples = p.tuples
	if p.live == len(p.tuples) {
		b.Sel = identitySel[:len(p.tuples)]
	} else {
		sel := b.selBuf[:0]
		for si, t := range p.tuples {
			if t != nil {
				sel = append(sel, int32(si))
			}
		}
		b.Sel = sel
	}
	id := bufferpool.PageID{Table: h.poolTable, Page: int32(pi)}
	return h.pool.WithPage(id, func() bool { return len(b.Sel) == 0 || visit(b) })
}

// Scan visits every live tuple in heap order, charging one read per page.
// The callback returns false to stop early. It is a per-tuple adapter over
// ScanBatch, so both paths share one accounting implementation.
func (h *Heap) Scan(io *IOCounter, visit func(rid btree.RID, t sqltypes.Tuple) bool) {
	h.ScanBatch(io, func(b *Batch) bool {
		for _, s := range b.Sel {
			if !visit(btree.RID{Page: b.Page, Slot: s}, b.Tuples[s]) {
				return false
			}
		}
		return true
	})
}
