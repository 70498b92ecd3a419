package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/btree"
	"repro/internal/sqltypes"
)

func tup(v int64) sqltypes.Tuple {
	return sqltypes.Tuple{sqltypes.NewInt(v)}
}

func TestInsertFetch(t *testing.T) {
	var io IOCounter
	h := NewHeap()
	rid := h.Insert(tup(42), &io)
	got := h.Fetch(rid, &io)
	if got == nil || got[0].Int != 42 {
		t.Fatalf("fetch after insert: %v", got)
	}
	if h.NumTuples() != 1 {
		t.Errorf("live count: %d", h.NumTuples())
	}
	if io.HeapPagesWritten != 1 || io.HeapPagesRead != 1 {
		t.Errorf("io accounting: %+v", io)
	}
}

func TestPagesFillAtCapacity(t *testing.T) {
	h := NewHeap()
	for i := 0; i < TuplesPerPage*3+1; i++ {
		h.Insert(tup(int64(i)), nil)
	}
	if h.NumPages() != 4 {
		t.Errorf("want 4 pages, got %d", h.NumPages())
	}
}

func TestUpdate(t *testing.T) {
	var io IOCounter
	h := NewHeap()
	rid := h.Insert(tup(1), &io)
	if err := h.Update(rid, tup(2), &io); err != nil {
		t.Fatal(err)
	}
	if h.Fetch(rid, &io)[0].Int != 2 {
		t.Error("update not visible")
	}
	if err := h.Update(btree.RID{Page: 99}, tup(3), &io); err == nil {
		t.Error("update of invalid rid must fail")
	}
}

func TestDeleteAndScanSkipsTombstones(t *testing.T) {
	var io IOCounter
	h := NewHeap()
	var rids []btree.RID
	for i := 0; i < 10; i++ {
		rids = append(rids, h.Insert(tup(int64(i)), &io))
	}
	if err := h.Delete(rids[4], &io); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rids[4], &io); err == nil {
		t.Error("double delete must fail")
	}
	if h.NumTuples() != 9 {
		t.Errorf("live count after delete: %d", h.NumTuples())
	}
	count := 0
	h.Scan(&io, func(rid btree.RID, tu sqltypes.Tuple) bool {
		if tu[0].Int == 4 {
			t.Error("tombstoned tuple visible in scan")
		}
		count++
		return true
	})
	if count != 9 {
		t.Errorf("scan visited %d tuples", count)
	}
	if h.Fetch(rids[4], &io) != nil {
		t.Error("fetch of deleted tuple should be nil")
	}
}

func TestScanEarlyStop(t *testing.T) {
	h := NewHeap()
	for i := 0; i < 100; i++ {
		h.Insert(tup(int64(i)), nil)
	}
	count := 0
	h.Scan(nil, func(rid btree.RID, tu sqltypes.Tuple) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Errorf("early stop: %d", count)
	}
}

func TestScanChargesPerPageIO(t *testing.T) {
	var io IOCounter
	h := NewHeap()
	for i := 0; i < TuplesPerPage*5; i++ {
		h.Insert(tup(int64(i)), &io)
	}
	io = IOCounter{}
	h.Scan(&io, func(rid btree.RID, tu sqltypes.Tuple) bool { return true })
	if io.HeapPagesRead != 5 {
		t.Errorf("full scan of 5 pages should charge 5 reads, got %d", io.HeapPagesRead)
	}
}

func TestNilIOCounterDiscardsCharges(t *testing.T) {
	h := NewHeap()
	rid := h.Insert(tup(1), nil)
	if got := h.Fetch(rid, nil); got == nil || got[0].Int != 1 {
		t.Fatalf("fetch with nil io: %v", got)
	}
	if err := h.Update(rid, tup(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rid, nil); err != nil {
		t.Fatal(err)
	}
	h.Scan(nil, func(rid btree.RID, tu sqltypes.Tuple) bool { return true })
}

func TestIOCounterAddAndTotal(t *testing.T) {
	a := IOCounter{HeapPagesRead: 1, HeapPagesWritten: 2, IndexPagesRead: 3, IndexPagesWritten: 4}
	var b IOCounter
	b.Add(a)
	b.Add(a)
	if want := (IOCounter{HeapPagesRead: 2, HeapPagesWritten: 4, IndexPagesRead: 6, IndexPagesWritten: 8}); b != want {
		t.Errorf("sum: %+v, want %+v", b, want)
	}
}

func TestPropertyInsertedTuplesAllVisible(t *testing.T) {
	f := func(vals []int64) bool {
		var io IOCounter
		h := NewHeap()
		seen := make(map[int64]int)
		for _, v := range vals {
			h.Insert(tup(v), &io)
			seen[v]++
		}
		h.Scan(&io, func(rid btree.RID, tu sqltypes.Tuple) bool {
			seen[tu[0].Int]--
			return true
		})
		for _, n := range seen {
			if n != 0 {
				return false
			}
		}
		return h.NumTuples() == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
