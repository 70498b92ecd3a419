// Package btree implements the B+Tree used for all secondary and primary
// indexes. Nodes model fixed-capacity pages so the tree exposes the index
// statistics AutoIndex's cost features need — height H, page count, tuple
// count N, and a running page-split counter — and so index maintenance on
// writes incurs realistic page-level work.
package btree

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sqltypes"
)

// RID identifies a heap tuple (page, slot) an index entry points at.
type RID struct {
	Page int32
	Slot int32
}

// DefaultOrder is the default max entries per node, sized so a node
// approximates an 8KB page of ~64-byte entries.
const DefaultOrder = 128

// Tree is a B+Tree mapping composite keys to heap RIDs. Duplicate keys are
// allowed (secondary indexes); entries with equal keys are adjacent.
type Tree struct {
	order    int
	root     node
	height   int
	numKeys  int64
	numPages int64
	splits   int64
	monitor  Monitor
	// faults, when armed, can fail inserts, splits, and scans. Checks fire
	// before any mutation, so an injected fault leaves the tree unchanged.
	faults *fault.Injector
}

// Monitor receives structural-change notifications: one call per page split
// and one per height change. The observability layer attaches here to count
// splits and track height without polling; with no monitor set the hooks
// cost a nil check.
type Monitor interface {
	Split()
	HeightChanged(height int)
}

// SetMonitor installs (or, with nil, removes) the structural-change monitor.
func (t *Tree) SetMonitor(m Monitor) { t.monitor = m }

// SetFaultInjector arms (or with nil disarms) fault injection on this tree's
// insert, split, and scan paths. Faults surface as *fault.Error panics,
// recovered at the engine statement boundary.
func (t *Tree) SetFaultInjector(in *fault.Injector) { t.faults = in }

type node interface {
	isLeaf() bool
}

type leafNode struct {
	keys []sqltypes.Key
	rids []RID
	next *leafNode
}

type innerNode struct {
	// keys[i] is the smallest key in children[i+1]'s subtree.
	keys     []sqltypes.Key
	children []node
}

func (*leafNode) isLeaf() bool  { return true }
func (*innerNode) isLeaf() bool { return false }

// ValidateOrder reports whether order is a legal node capacity. Callers that
// accept an order from configuration should validate it here and return the
// error; New and BulkBuild keep a panic on violation purely as an internal
// invariant for already-validated call sites.
func ValidateOrder(order int) error {
	if order < 4 {
		return fmt.Errorf("btree: order %d too small (min 4)", order)
	}
	return nil
}

// New creates an empty tree with the given node capacity (entries per page).
// Order must be at least 4 (see ValidateOrder); DefaultOrder approximates 8KB
// pages.
func New(order int) *Tree {
	if err := ValidateOrder(order); err != nil {
		panic(err.Error())
	}
	return &Tree{
		order:    order,
		root:     &leafNode{},
		height:   1,
		numPages: 1,
	}
}

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int { return t.height }

// Len returns the number of entries.
func (t *Tree) Len() int64 { return t.numKeys }

// NumPages returns the node (page) count.
func (t *Tree) NumPages() int64 { return t.numPages }

// Splits returns the cumulative page-split count since creation; the cost
// model reads this to price index maintenance.
func (t *Tree) Splits() int64 { return t.splits }

// Insert adds key→rid. Duplicates are allowed.
func (t *Tree) Insert(key sqltypes.Key, rid RID) {
	if t.faults != nil {
		t.faults.MustCheck(fault.SiteBtreeInsert)
	}
	newChild, splitKey := t.insert(t.root, key, rid)
	if newChild != nil {
		newRoot := &innerNode{
			keys:     []sqltypes.Key{splitKey},
			children: []node{t.root, newChild},
		}
		t.root = newRoot
		t.height++
		t.numPages++
		if t.monitor != nil {
			t.monitor.HeightChanged(t.height)
		}
	}
	t.numKeys++
}

// insert descends to the leaf, inserting; on overflow it splits and returns
// the new right sibling plus its separator key.
func (t *Tree) insert(n node, key sqltypes.Key, rid RID) (node, sqltypes.Key) {
	if leaf, ok := n.(*leafNode); ok {
		// Fire the split site before mutating when this insert will
		// overflow the leaf, so a fault cannot strand a half-split page.
		if t.faults != nil && len(leaf.keys) >= t.order {
			t.faults.MustCheck(fault.SiteBtreeSplit)
		}
		idx := lowerBound(leaf.keys, key)
		leaf.keys = insertKeyAt(leaf.keys, idx, key)
		leaf.rids = insertRIDAt(leaf.rids, idx, rid)
		if len(leaf.keys) <= t.order {
			return nil, nil
		}
		// split leaf
		mid := len(leaf.keys) / 2
		right := &leafNode{
			keys: append([]sqltypes.Key(nil), leaf.keys[mid:]...),
			rids: append([]RID(nil), leaf.rids[mid:]...),
			next: leaf.next,
		}
		leaf.keys = leaf.keys[:mid]
		leaf.rids = leaf.rids[:mid]
		leaf.next = right
		t.numPages++
		t.splits++
		if t.monitor != nil {
			t.monitor.Split()
		}
		return right, right.keys[0]
	}

	inner := n.(*innerNode)
	// A full inner node splits if its child splits; check before descending
	// so the fault unwinds before either node is touched.
	if t.faults != nil && len(inner.children) >= t.order {
		t.faults.MustCheck(fault.SiteBtreeSplit)
	}
	ci := childIndex(inner.keys, key)
	newChild, splitKey := t.insert(inner.children[ci], key, rid)
	if newChild == nil {
		return nil, nil
	}
	inner.keys = insertKeyAt(inner.keys, ci, splitKey)
	inner.children = insertNodeAt(inner.children, ci+1, newChild)
	if len(inner.children) <= t.order {
		return nil, nil
	}
	// split inner
	midKey := len(inner.keys) / 2
	sep := inner.keys[midKey]
	right := &innerNode{
		keys:     append([]sqltypes.Key(nil), inner.keys[midKey+1:]...),
		children: append([]node(nil), inner.children[midKey+1:]...),
	}
	inner.keys = inner.keys[:midKey]
	inner.children = inner.children[:midKey+1]
	t.numPages++
	t.splits++
	if t.monitor != nil {
		t.monitor.Split()
	}
	return right, sep
}

// Delete removes one entry with the exact key and rid. Returns whether an
// entry was removed. Underfull nodes are tolerated (no rebalancing), as in
// most production B+Trees that rely on periodic vacuum.
func (t *Tree) Delete(key sqltypes.Key, rid RID) bool {
	leaf, idx := t.findLeaf(key)
	if leaf == nil {
		return false
	}
	for l := leaf; l != nil; l = l.next {
		start := 0
		if l == leaf {
			start = idx
		}
		for i := start; i < len(l.keys); i++ {
			c := sqltypes.CompareKeys(l.keys[i], key)
			if c > 0 {
				return false
			}
			if c == 0 && l.rids[i] == rid {
				l.keys = append(l.keys[:i], l.keys[i+1:]...)
				l.rids = append(l.rids[:i], l.rids[i+1:]...)
				t.numKeys--
				return true
			}
		}
	}
	return false
}

// Entry is one key→rid pair returned by scans.
type Entry struct {
	Key sqltypes.Key
	RID RID
}

// SearchEq returns all entries whose key's prefix equals the given key
// (supports composite-prefix lookups).
func (t *Tree) SearchEq(key sqltypes.Key) []Entry {
	var out []Entry
	t.ScanRange(key, key, true, true, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// ScanRange visits entries with lo ≤/< key ≤/< hi in order. A nil lo means
// scan from the beginning; nil hi means scan to the end. Bound comparison is
// prefix-aware: a bound shorter than the stored key matches on the prefix.
// The callback returns false to stop early. Returns the number of leaf pages
// touched, which the executor charges as IO.
func (t *Tree) ScanRange(lo, hi sqltypes.Key, loInc, hiInc bool, visit func(Entry) bool) int64 {
	if t.faults != nil {
		t.faults.MustCheck(fault.SiteBtreeScan)
	}
	var leaf *leafNode
	if lo == nil {
		leaf = t.leftmostLeaf()
	} else {
		leaf, _ = t.findLeaf(lo)
	}
	var pages int64
	for ; leaf != nil; leaf = leaf.next {
		pages++
		for i := range leaf.keys {
			k := leaf.keys[i]
			if lo != nil {
				c := comparePrefix(k, lo)
				if c < 0 || (c == 0 && !loInc) {
					continue
				}
			}
			if hi != nil {
				c := comparePrefix(k, hi)
				if c > 0 || (c == 0 && !hiInc) {
					return pages
				}
			}
			if !visit(Entry{Key: k, RID: leaf.rids[i]}) {
				return pages
			}
		}
	}
	return pages
}

// comparePrefix compares stored key k against bound b using only the first
// len(b) columns of k, so short bounds act as prefix ranges.
func comparePrefix(k, b sqltypes.Key) int {
	if len(k) > len(b) {
		k = k[:len(b)]
	}
	return sqltypes.CompareKeys(k, b)
}

// findLeaf descends to the leaf where key would live, returning the leaf and
// the index of the first entry ≥ key.
func (t *Tree) findLeaf(key sqltypes.Key) (*leafNode, int) {
	n := t.root
	for {
		if leaf, ok := n.(*leafNode); ok {
			return leaf, lowerBound(leaf.keys, key)
		}
		inner := n.(*innerNode)
		n = inner.children[childIndex(inner.keys, key)]
	}
}

func (t *Tree) leftmostLeaf() *leafNode {
	n := t.root
	for {
		if leaf, ok := n.(*leafNode); ok {
			return leaf
		}
		n = n.(*innerNode).children[0]
	}
}

// lowerBound returns the first index whose key is ≥ key.
func lowerBound(keys []sqltypes.Key, key sqltypes.Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if sqltypes.CompareKeys(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex picks which child subtree a key belongs to. On separator
// equality it descends left, so lookups land on the leftmost leaf that can
// hold the key — required for correct duplicate-key scans (duplicates may
// span several leaves and the scan walks forward through leaf links).
func childIndex(keys []sqltypes.Key, key sqltypes.Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if sqltypes.CompareKeys(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func insertKeyAt(s []sqltypes.Key, i int, v sqltypes.Key) []sqltypes.Key {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertRIDAt(s []RID, i int, v RID) []RID {
	s = append(s, RID{})
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertNodeAt(s []node, i int, v node) []node {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Validate checks structural invariants (key order within and across leaves,
// separator consistency). It is used by tests and returns the first
// violation found.
func (t *Tree) Validate() error {
	var prev sqltypes.Key
	count := int64(0)
	for leaf := t.leftmostLeaf(); leaf != nil; leaf = leaf.next {
		if len(leaf.keys) != len(leaf.rids) {
			return fmt.Errorf("btree: leaf keys/rids length mismatch")
		}
		for _, k := range leaf.keys {
			if prev != nil && sqltypes.CompareKeys(prev, k) > 0 {
				return fmt.Errorf("btree: keys out of order: %v after %v", k, prev)
			}
			prev = k
			count++
		}
	}
	if count != t.numKeys {
		return fmt.Errorf("btree: numKeys=%d but leaves hold %d", t.numKeys, count)
	}
	return nil
}
