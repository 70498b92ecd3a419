package btree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sqltypes"
)

// referenceBulkBuild is BulkBuild as it stood before the sort kernel: copy
// the entries, sort.SliceStable over CompareKeys, copy again into leaves. It
// is the definition of the tree BulkBuild must produce.
func referenceBulkBuild(entries []Entry, order int) *Tree {
	t := &Tree{order: order}
	if len(entries) == 0 {
		t.root = &leafNode{}
		t.height = 1
		t.numPages = 1
		return t
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sqltypes.CompareKeys(sorted[i].Key, sorted[j].Key) < 0
	})

	fill := order * 7 / 10
	if fill < 2 {
		fill = 2
	}
	var leaves []*leafNode
	for start := 0; start < len(sorted); start += fill {
		end := start + fill
		if end > len(sorted) {
			end = len(sorted)
		}
		leaf := &leafNode{}
		for _, e := range sorted[start:end] {
			leaf.keys = append(leaf.keys, e.Key)
			leaf.rids = append(leaf.rids, e.RID)
		}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = leaf
		}
		leaves = append(leaves, leaf)
	}
	t.numKeys = int64(len(sorted))
	t.numPages = int64(len(leaves))
	t.height = 1

	level := make([]node, len(leaves))
	firstKeys := make([]sqltypes.Key, len(leaves))
	for i, l := range leaves {
		level[i] = l
		firstKeys[i] = l.keys[0]
	}
	for len(level) > 1 {
		var nextLevel []node
		var nextFirst []sqltypes.Key
		for start := 0; start < len(level); start += fill {
			end := start + fill
			if end > len(level) {
				end = len(level)
			}
			nextLevel = append(nextLevel, &innerNode{
				children: append([]node(nil), level[start:end]...),
				keys:     append([]sqltypes.Key(nil), firstKeys[start+1:end]...),
			})
			nextFirst = append(nextFirst, firstKeys[start])
			t.numPages++
		}
		level = nextLevel
		firstKeys = nextFirst
		t.height++
	}
	t.root = level[0]
	return t
}

// sameValue is representation equality, stricter than Compare == 0: int 5
// and float 5.0 differ, as do -0 and +0.
func sameValue(a, b sqltypes.Value) bool {
	return a.Kind == b.Kind && a.Int == b.Int && a.Str == b.Str &&
		math.Float64bits(a.Float) == math.Float64bits(b.Float)
}

func sameKey(a, b sqltypes.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameNode compares two subtrees node by node: shape, separators, and in the
// leaves every key and RID in order.
func sameNode(a, b node, path string) error {
	if a.isLeaf() != b.isLeaf() {
		return fmt.Errorf("%s: leaf on one side, inner node on the other", path)
	}
	if a.isLeaf() {
		la, lb := a.(*leafNode), b.(*leafNode)
		if len(la.keys) != len(lb.keys) || len(la.rids) != len(lb.rids) {
			return fmt.Errorf("%s: leaf holds %d keys / %d rids, reference %d / %d",
				path, len(la.keys), len(la.rids), len(lb.keys), len(lb.rids))
		}
		for i := range la.keys {
			if la.rids[i] != lb.rids[i] || !sameKey(la.keys[i], lb.keys[i]) {
				return fmt.Errorf("%s[%d]: %v→%v, reference %v→%v",
					path, i, la.keys[i], la.rids[i], lb.keys[i], lb.rids[i])
			}
		}
		return nil
	}
	ia, ib := a.(*innerNode), b.(*innerNode)
	if len(ia.children) != len(ib.children) || len(ia.keys) != len(ib.keys) {
		return fmt.Errorf("%s: %d children / %d separators, reference %d / %d",
			path, len(ia.children), len(ia.keys), len(ib.children), len(ib.keys))
	}
	for i := range ia.keys {
		if !sameKey(ia.keys[i], ib.keys[i]) {
			return fmt.Errorf("%s: separator %d is %v, reference %v", path, i, ia.keys[i], ib.keys[i])
		}
	}
	for i := range ia.children {
		if err := sameNode(ia.children[i], ib.children[i], fmt.Sprintf("%s/%d", path, i)); err != nil {
			return err
		}
	}
	return nil
}

// checkAgainstReference builds entries both ways and requires the same tree:
// counters, every node, the leaf chain, Validate — and an untouched argument.
func checkAgainstReference(t *testing.T, entries []Entry, order int) {
	t.Helper()
	before := make([]Entry, len(entries))
	for i, e := range entries {
		before[i] = Entry{Key: append(sqltypes.Key(nil), e.Key...), RID: e.RID}
	}
	got := BulkBuild(entries, order)
	for i := range before {
		if entries[i].RID != before[i].RID || !sameKey(entries[i].Key, before[i].Key) {
			t.Fatalf("BulkBuild changed its argument at %d: %v, was %v", i, entries[i], before[i])
		}
	}
	want := referenceBulkBuild(entries, order)
	if got.Len() != want.Len() || got.NumPages() != want.NumPages() || got.Height() != want.Height() {
		t.Fatalf("len/pages/height = %d/%d/%d, reference %d/%d/%d",
			got.Len(), got.NumPages(), got.Height(), want.Len(), want.NumPages(), want.Height())
	}
	if err := sameNode(got.root, want.root, "root"); err != nil {
		t.Fatal(err)
	}
	// The leaf chain reaches every leaf the descent does, in the same order.
	lg, lw := got.leftmostLeaf(), want.leftmostLeaf()
	for n := 0; lg != nil || lw != nil; n++ {
		if lg == nil || lw == nil {
			t.Fatalf("leaf chain ends after %d leaves on one side only", n)
		}
		if err := sameNode(lg, lw, fmt.Sprintf("chain[%d]", n)); err != nil {
			t.Fatal(err)
		}
		lg, lw = lg.next, lw.next
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Value pools for generated key columns. Compare is a weak order — the thing
// any sort needs — on all values except across one gap: it compares an int
// with a float through float64, so two distinct ints that round to the same
// float both equal that float and yet differ from each other. No pool
// therefore holds a float together with an int float64 cannot represent;
// ints beyond 2^53 appear inexactly among ints (where the prefix ties and
// Compare decides exactly) and exactly among floats.
var (
	poolSmallInts = []sqltypes.Value{
		sqltypes.NewInt(-3), sqltypes.NewInt(-1), sqltypes.NewInt(0), sqltypes.NewInt(1),
		sqltypes.NewInt(2), sqltypes.NewInt(255), sqltypes.NewInt(256), sqltypes.NewInt(65536),
	}
	poolExtremeInts = []sqltypes.Value{
		sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(math.MinInt64 + 1), sqltypes.NewInt(-1 << 53),
		sqltypes.NewInt(-1<<53 - 1), sqltypes.NewInt(-1), sqltypes.NewInt(0), sqltypes.NewInt(1),
		sqltypes.NewInt(1 << 53), sqltypes.NewInt(1<<53 + 1), sqltypes.NewInt(1<<53 + 2),
		sqltypes.NewInt(math.MaxInt64 - 1), sqltypes.NewInt(math.MaxInt64),
	}
	poolNumbers = []sqltypes.Value{
		sqltypes.NewInt(-1 << 60), sqltypes.NewInt(-2), sqltypes.NewInt(0), sqltypes.NewInt(5),
		sqltypes.NewInt(1 << 53), sqltypes.NewInt(1<<53 + 2), sqltypes.NewInt(1 << 60),
		sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewFloat(-1 << 60), sqltypes.NewFloat(-1.5),
		sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(0), sqltypes.NewFloat(0.5),
		sqltypes.NewFloat(5), sqltypes.NewFloat(5.000000000000001), sqltypes.NewFloat(1 << 53),
		sqltypes.NewFloat(1<<53 + 2), sqltypes.NewFloat(1e300), sqltypes.NewFloat(math.Inf(1)),
	}
	poolStrings = []sqltypes.Value{
		sqltypes.NewString(""), sqltypes.NewString("\x00"), sqltypes.NewString("a"), sqltypes.NewString("ab"),
		sqltypes.NewString("abcdefg"), sqltypes.NewString("abcdefgh"), sqltypes.NewString("abcdefgh\x00"),
		sqltypes.NewString("abcdefghi"), sqltypes.NewString("abcdefghj"),
		sqltypes.NewString("commonprefix-0001"), sqltypes.NewString("commonprefix-0002"),
		sqltypes.NewString("\xff\xff\xff\xff\xff\xff\xff\xff"), sqltypes.NewString("\xff\xff\xff\xff\xff\xff\xff\xfe\x01"),
	}
	poolNullable = append([]sqltypes.Value{sqltypes.Null()}, poolSmallInts...)
	poolMixed    = append(append([]sqltypes.Value{sqltypes.Null()}, poolNumbers...), poolStrings...)
	poolConstant = []sqltypes.Value{sqltypes.NewInt(7)}
)

// genEntries draws n keys, column j from pools[j]; with ragged set a key
// keeps a random-length prefix of its columns (down to none). RIDs number
// the entries, so two builds agree on RIDs only if they agree on the
// permutation.
func genEntries(rng *rand.Rand, n int, ragged bool, pools ...[]sqltypes.Value) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		key := make(sqltypes.Key, len(pools))
		for j, pool := range pools {
			key[j] = pool[rng.Intn(len(pool))]
		}
		if ragged {
			key = key[:rng.Intn(len(key)+1)]
		}
		entries[i] = Entry{Key: key, RID: RID{Page: int32(i / 64), Slot: int32(i % 64)}}
	}
	return entries
}

// distinctEntries draws n single-column int keys, no two equal, shuffled.
func distinctEntries(rng *rand.Rand, n int) []Entry {
	entries := make([]Entry, n)
	for i, v := range rng.Perm(n) {
		entries[i] = Entry{Key: intKey(int64(v)*7919 - 1<<20), RID: RID{Page: int32(i)}}
	}
	return entries
}

func TestBulkBuildMatchesReferenceSort(t *testing.T) {
	shapes := []struct {
		name   string
		ragged bool
		pools  [][]sqltypes.Value
	}{
		{"one_distinct_value", false, [][]sqltypes.Value{poolConstant}},
		{"small_ints", false, [][]sqltypes.Value{poolSmallInts}},
		{"extreme_ints", false, [][]sqltypes.Value{poolExtremeInts}},
		{"all_distinct_ints", false, nil}, // distinctEntries
		{"int_composite", false, [][]sqltypes.Value{poolConstant, poolSmallInts, poolExtremeInts}},
		{"int_composite_ragged", true, [][]sqltypes.Value{poolSmallInts, poolSmallInts, poolExtremeInts}},
		{"ints_and_floats", false, [][]sqltypes.Value{poolNumbers}},
		{"ints_and_floats_then_int", false, [][]sqltypes.Value{poolNumbers, poolSmallInts}},
		{"strings", false, [][]sqltypes.Value{poolStrings}},
		{"string_then_int", false, [][]sqltypes.Value{poolStrings, poolSmallInts}},
		{"int_then_string", false, [][]sqltypes.Value{poolSmallInts, poolStrings}},
		{"extreme_ints_then_string", false, [][]sqltypes.Value{poolExtremeInts, poolStrings}},
		{"nulls_first_column", false, [][]sqltypes.Value{poolNullable, poolSmallInts}},
		{"nulls_last_column", false, [][]sqltypes.Value{poolSmallInts, poolNullable}},
		{"mixed_kinds", false, [][]sqltypes.Value{poolMixed}},
		{"mixed_kinds_composite_ragged", true, [][]sqltypes.Value{poolMixed, poolMixed, poolNullable}},
		{"empty_keys", true, [][]sqltypes.Value{poolSmallInts}},
	}
	// order 8 packs 5 entries to a leaf and 5 children to an inner node:
	// sizes straddle one leaf, one inner node and two inner levels.
	sizes := []int{1, 2, 4, 5, 6, 24, 25, 26, 125, 126, 700}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			for _, n := range sizes {
				entries := distinctEntries(rng, n)
				if shape.pools != nil {
					entries = genEntries(rng, n, shape.ragged, shape.pools...)
				}
				checkAgainstReference(t, entries, 8)

				// The same set presorted, reversed, and at the default order.
				presorted := append([]Entry(nil), entries...)
				sort.SliceStable(presorted, func(i, j int) bool {
					return sqltypes.CompareKeys(presorted[i].Key, presorted[j].Key) < 0
				})
				checkAgainstReference(t, presorted, 8)
				for i, j := 0, len(presorted)-1; i < j; i, j = i+1, j-1 {
					presorted[i], presorted[j] = presorted[j], presorted[i]
				}
				checkAgainstReference(t, presorted, 8)
				checkAgainstReference(t, entries, DefaultOrder)
			}
		})
	}
}

// The prefix may tie where Compare does not, never the reverse: over every
// pair of pool values, a smaller prefix means a smaller key.
func TestKeyPrefixIsACoarseningOfCompare(t *testing.T) {
	var keys []sqltypes.Key
	keys = append(keys, sqltypes.Key{})
	for _, pool := range [][]sqltypes.Value{poolExtremeInts, poolMixed} {
		for _, v := range pool {
			keys = append(keys, sqltypes.Key{v}, sqltypes.Key{v, sqltypes.NewInt(1)})
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			pa, pb := keyPrefix(a), keyPrefix(b)
			if c := sqltypes.CompareKeys(a, b); (pa < pb && c >= 0) || (pa > pb && c <= 0) {
				t.Errorf("prefix(%v)=%#x, prefix(%v)=%#x, but CompareKeys=%d", a, pa, b, pb, c)
			}
		}
	}
}

// decodeFuzzEntries turns fuzz bytes into an entry set. Per the note on the
// pools, ints carry at most 32 significant bits (exact in float64, shifted up
// to 2^62) so that arbitrary floats beside them keep Compare an order; NaN
// is not an ordered value at all and decodes as 0.
func decodeFuzzEntries(data []byte, width int, ragged bool) []Entry {
	var entries []Entry
	next := func(n int) []byte {
		if len(data) < n {
			data = append(data, make([]byte, n-len(data))...)
		}
		out := data[:n]
		data = data[n:]
		return out
	}
	for len(data) > 0 && len(entries) < 2000 {
		cols := width
		if ragged {
			cols = int(next(1)[0]) % (width + 1)
		}
		key := make(sqltypes.Key, cols)
		for j := range key {
			switch tag := next(1)[0]; tag % 5 {
			case 0:
				key[j] = sqltypes.Null()
			case 1:
				key[j] = sqltypes.NewInt(int64(int8(next(1)[0])))
			case 2:
				b := next(5)
				key[j] = sqltypes.NewInt(int64(int32(binary.LittleEndian.Uint32(b))) << (b[4] % 31))
			case 3:
				f := math.Float64frombits(binary.LittleEndian.Uint64(next(8)))
				if f != f {
					f = 0
				}
				key[j] = sqltypes.NewFloat(f)
			case 4:
				key[j] = sqltypes.NewString(string(next(int(tag) / 5 % 12)))
			}
		}
		entries = append(entries, Entry{Key: key, RID: RID{Page: int32(len(entries))}})
	}
	return entries
}

func FuzzBulkBuildOrder(f *testing.F) {
	f.Add([]byte{1, 5, 1, 3, 1, 5, 1, 250, 1, 0}, uint8(1), uint8(8), false)
	f.Add([]byte("\x04abcdefghi\x04abcdefghj\x00\x04"), uint8(2), uint8(4), false)
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0x80, 3, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 20}, uint8(1), uint8(5), true)
	f.Add([]byte{2, 1, 2, 255, 255, 255, 127, 30, 1, 9, 0, 44}, uint8(3), uint8(200), true)
	f.Fuzz(func(t *testing.T, data []byte, width, order uint8, ragged bool) {
		if ValidateOrder(int(order)) != nil {
			order = DefaultOrder
		}
		entries := decodeFuzzEntries(data, int(width)%4, ragged)
		checkAgainstReference(t, entries, int(order))
	})
}

func TestDecodeFuzzEntriesCoversEveryKind(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	kinds := map[sqltypes.Kind]int{}
	lengths := map[int]int{}
	for _, e := range decodeFuzzEntries(data, 3, true) {
		lengths[len(e.Key)]++
		for _, v := range e.Key {
			kinds[v.Kind]++
		}
	}
	for _, k := range []sqltypes.Kind{sqltypes.KindNull, sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString} {
		if kinds[k] == 0 {
			t.Errorf("no %v value decoded", k)
		}
	}
	if len(lengths) != 4 {
		t.Errorf("key lengths decoded: %v, want 0 through 3", lengths)
	}
}
