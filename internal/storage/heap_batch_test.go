package storage

import (
	"reflect"
	"testing"

	"repro/internal/btree"
	"repro/internal/bufferpool"
	"repro/internal/sqltypes"
)

// --- Fetch charging (PR 9 satellite: charge only on real page touches) ---

func TestFetchOutOfRangeChargesNothing(t *testing.T) {
	var io IOCounter
	h := NewHeap()
	h.Insert(tup(1), nil)
	io.Reset()
	for _, rid := range []btree.RID{{Page: -1}, {Page: 5}, {Page: 1, Slot: 0}} {
		if got := h.Fetch(rid, &io); got != nil {
			t.Fatalf("Fetch(%v) = %v, want nil", rid, got)
		}
	}
	if io.HeapPagesRead != 0 {
		t.Fatalf("out-of-range fetches charged %d page reads, want 0", io.HeapPagesRead)
	}
	// A real page touch still charges, even when the slot is out of range
	// (the page had to be read to learn that).
	if got := h.Fetch(btree.RID{Page: 0, Slot: 99}, &io); got != nil {
		t.Fatalf("Fetch of bad slot = %v, want nil", got)
	}
	if io.HeapPagesRead != 1 {
		t.Fatalf("in-range page fetch charged %d reads, want 1", io.HeapPagesRead)
	}
}

func TestUpdateDeleteInvalidRIDChargesNothing(t *testing.T) {
	var io IOCounter
	h := NewHeap()
	h.Insert(tup(1), nil)
	io.Reset()
	if err := h.Update(btree.RID{Page: 7}, tup(2), &io); err == nil {
		t.Fatal("update of invalid rid must fail")
	}
	if err := h.Delete(btree.RID{Page: 7}, &io); err == nil {
		t.Fatal("delete of invalid rid must fail")
	}
	if io != (IOCounter{}) {
		t.Fatalf("invalid-rid writes charged %+v, want nothing", io)
	}
}

// --- Insert slot reuse (PR 9 satellite: tombstones get refilled) ---

func TestInsertReusesTombstonedSlots(t *testing.T) {
	h := NewHeap()
	var rids []btree.RID
	for i := 0; i < TuplesPerPage*2; i++ { // two full pages
		rids = append(rids, h.Insert(tup(int64(i)), nil))
	}
	// Tombstone one slot on each page, out of order.
	victims := []btree.RID{rids[TuplesPerPage+3], rids[5]}
	for _, rid := range victims {
		if err := h.Delete(rid, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Reinserts must land in the freed slots, lowest page first, instead of
	// growing a third page.
	if got := h.Insert(tup(1000), nil); got != rids[5] {
		t.Fatalf("first reinsert landed at %v, want reused slot %v", got, rids[5])
	}
	if got := h.Insert(tup(1001), nil); got != rids[TuplesPerPage+3] {
		t.Fatalf("second reinsert landed at %v, want reused slot %v", got, rids[TuplesPerPage+3])
	}
	if h.NumPages() != 2 {
		t.Fatalf("reinserts grew the heap to %d pages, want 2", h.NumPages())
	}
	// With no tombstones left, inserts append again.
	if got := h.Insert(tup(1002), nil); got.Page != 2 || got.Slot != 0 {
		t.Fatalf("post-reuse insert landed at %v, want start of page 2", got)
	}
	if h.NumTuples() != int64(TuplesPerPage*2+1) {
		t.Fatalf("live count = %d", h.NumTuples())
	}
}

func TestAppendOnlyRIDsUnchangedBySlotReuse(t *testing.T) {
	// Determinism pin: an append-only workload must assign exactly the RIDs
	// it did before the free-slot hint existed — page-major, slot-minor.
	h := NewHeap()
	for i := 0; i < TuplesPerPage*3+17; i++ {
		rid := h.Insert(tup(int64(i)), nil)
		want := btree.RID{Page: int32(i / TuplesPerPage), Slot: int32(i % TuplesPerPage)}
		if rid != want {
			t.Fatalf("insert %d assigned %v, want %v", i, rid, want)
		}
	}
}

func TestSlotReuseInterleavedWithDeletes(t *testing.T) {
	// Hint maintenance across delete-below-hint: deleting on a lower page
	// after the hint advanced must pull the hint back down.
	h := NewHeap()
	var rids []btree.RID
	for i := 0; i < TuplesPerPage*3; i++ {
		rids = append(rids, h.Insert(tup(int64(i)), nil))
	}
	del := func(rid btree.RID) {
		t.Helper()
		if err := h.Delete(rid, nil); err != nil {
			t.Fatal(err)
		}
	}
	del(rids[TuplesPerPage*2]) // page 2
	if got := h.Insert(tup(-1), nil); got != rids[TuplesPerPage*2] {
		t.Fatalf("reinsert landed at %v, want %v", got, rids[TuplesPerPage*2])
	}
	del(rids[0]) // page 0, below the advanced hint
	if got := h.Insert(tup(-2), nil); got != rids[0] {
		t.Fatalf("reinsert after low delete landed at %v, want %v", got, rids[0])
	}
	// Everything inserted is visible exactly once.
	seen := map[int64]int{}
	h.Scan(nil, func(_ btree.RID, tu sqltypes.Tuple) bool {
		seen[tu[0].Int]++
		return true
	})
	if seen[-1] != 1 || seen[-2] != 1 {
		t.Fatalf("reinserted tuples visible %d/%d times, want once each", seen[-1], seen[-2])
	}
}

// --- ScanBatch (PR 9 tentpole: batch accounting mirrors Scan) ---

func TestScanBatchMatchesScan(t *testing.T) {
	h := NewHeap()
	var rids []btree.RID
	for i := 0; i < TuplesPerPage*2+9; i++ {
		rids = append(rids, h.Insert(tup(int64(i)), nil))
	}
	for _, i := range []int{3, TuplesPerPage, TuplesPerPage * 2} {
		if err := h.Delete(rids[i], nil); err != nil {
			t.Fatal(err)
		}
	}

	type visit struct {
		rid btree.RID
		val int64
	}
	var scanIO, batchIO IOCounter
	var fromScan, fromBatch []visit
	h.Scan(&scanIO, func(rid btree.RID, tu sqltypes.Tuple) bool {
		fromScan = append(fromScan, visit{rid, tu[0].Int})
		return true
	})
	h.ScanBatch(&batchIO, func(b *Batch) bool {
		for _, s := range b.Sel {
			fromBatch = append(fromBatch, visit{b.RID(s), b.Tuples[s][0].Int})
		}
		return true
	})
	if !reflect.DeepEqual(fromScan, fromBatch) {
		t.Fatalf("batch visits diverge from scan visits:\n scan:  %v\n batch: %v", fromScan, fromBatch)
	}
	if scanIO != batchIO {
		t.Fatalf("io diverges: scan %+v, batch %+v", scanIO, batchIO)
	}
	if batchIO.HeapPagesRead != h.NumPages() {
		t.Fatalf("batch scan charged %d reads over %d pages", batchIO.HeapPagesRead, h.NumPages())
	}
}

func TestScanBatchEarlyStop(t *testing.T) {
	h := NewHeap()
	for i := 0; i < TuplesPerPage*4; i++ {
		h.Insert(tup(int64(i)), nil)
	}
	var io IOCounter
	batches := 0
	h.ScanBatch(&io, func(b *Batch) bool {
		batches++
		return batches < 2
	})
	if batches != 2 {
		t.Fatalf("visited %d batches after early stop, want 2", batches)
	}
	if io.HeapPagesRead != 2 {
		t.Fatalf("early-stopped batch scan charged %d reads, want 2", io.HeapPagesRead)
	}
}

func TestScanBatchChargesEmptyPages(t *testing.T) {
	// A fully-tombstoned page is still read (and charged) but not visited —
	// identical to the tuple path, where the page yields no callbacks.
	h := NewHeap()
	var rids []btree.RID
	for i := 0; i < TuplesPerPage*2; i++ {
		rids = append(rids, h.Insert(tup(int64(i)), nil))
	}
	for i := 0; i < TuplesPerPage; i++ {
		if err := h.Delete(rids[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	var io IOCounter
	visited := 0
	h.ScanBatch(&io, func(b *Batch) bool {
		visited++
		if b.Page != 1 {
			t.Fatalf("visited empty page %d", b.Page)
		}
		return true
	})
	if visited != 1 || io.HeapPagesRead != 2 {
		t.Fatalf("visited %d batches with %d reads, want 1 batch / 2 reads", visited, io.HeapPagesRead)
	}
}

// --- Buffer-pool attachment ---

func TestAttachedPoolSeesEveryPageTouch(t *testing.T) {
	pool := bufferpool.NewManager(0)
	h := NewHeap()
	h.AttachPool(pool, 3)
	var rids []btree.RID
	for i := 0; i < TuplesPerPage+1; i++ { // two pages
		rids = append(rids, h.Insert(tup(int64(i)), nil))
	}
	afterInsert := pool.Stats()
	if afterInsert.Misses != 2 {
		t.Fatalf("inserts loaded %d pages, want 2", afterInsert.Misses)
	}
	h.Scan(nil, func(btree.RID, sqltypes.Tuple) bool { return true })
	h.Fetch(rids[0], nil)
	if err := h.Update(rids[0], tup(-1), nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rids[1], nil); err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.Misses != 2 {
		t.Fatalf("working set stayed 2 pages but misses = %d", s.Misses)
	}
	// inserts + 2 scan pins + fetch + update + delete, all after the loads.
	wantHits := int64(TuplesPerPage+1) - 2 + 2 + 1 + 1 + 1
	if s.Hits != wantHits {
		t.Fatalf("hits = %d, want %d", s.Hits, wantHits)
	}
	if s.Pinned != 0 {
		t.Fatalf("scan leaked %d pinned frames", s.Pinned)
	}
}

func TestUnpooledHeapWorks(t *testing.T) {
	h := NewHeap() // no AttachPool: every touch is a nil-check no-op
	rid := h.Insert(tup(1), nil)
	if got := h.Fetch(rid, nil); got == nil || got[0].Int != 1 {
		t.Fatalf("fetch = %v", got)
	}
	h.AttachPool(nil, 0) // explicit detach is also fine
	h.Scan(nil, func(btree.RID, sqltypes.Tuple) bool { return true })
}
