package btree

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/sqltypes"
)

// BulkBuild constructs a tree bottom-up from entries, the CREATE INDEX
// path: sort once, pack leaves to ~70% fill (leaving insert headroom), layer
// the internal levels on top — no per-key descents, no splits. Its contract:
//
//   - The leaf sequence is entries in sqltypes.CompareKeys order, entries
//     with equal keys in the order the argument holds them (a stable sort),
//     whatever order the argument arrives in.
//   - The layout — leaf boundaries, separators, page count, height — is a
//     pure function of that sorted sequence and order, so two builds of the
//     same entry set are the same tree and cost the same to probe.
//   - entries is read, never written; the tree shares its Key slices (a Key
//     is immutable once handed to a tree).
//
// The sort never moves an Entry: it orders a permutation of 16-byte
// {normalized prefix, input index} pairs (DESIGN.md §15) and the leaves are
// filled from the argument through it.
func BulkBuild(entries []Entry, order int) *Tree {
	if err := ValidateOrder(order); err != nil {
		panic(err.Error())
	}
	t := &Tree{order: order, height: 1}
	if len(entries) == 0 {
		t.root = &leafNode{}
		t.numPages = 1
		return t
	}
	perm := sortedPermutation(entries)

	fill := order * 7 / 10
	if fill < 2 {
		fill = 2
	}
	// Leaf level.
	level := make([]node, (len(perm)+fill-1)/fill)
	firstKeys := make([]sqltypes.Key, len(level))
	var prev *leafNode
	for li := range level {
		run := perm[li*fill : min((li+1)*fill, len(perm))]
		leaf := &leafNode{
			keys: make([]sqltypes.Key, len(run)),
			rids: make([]RID, len(run)),
		}
		for j, r := range run {
			e := &entries[r.idx]
			leaf.keys[j] = e.Key
			leaf.rids[j] = e.RID
		}
		if prev != nil {
			prev.next = leaf
		}
		prev = leaf
		level[li] = leaf
		firstKeys[li] = leaf.keys[0]
	}
	t.numKeys = int64(len(perm))
	t.numPages = int64(len(level))

	// Internal levels.
	for len(level) > 1 {
		var nextLevel []node
		var nextFirst []sqltypes.Key
		for start := 0; start < len(level); start += fill {
			end := min(start+fill, len(level))
			inner := &innerNode{
				children: append([]node(nil), level[start:end]...),
				keys:     append([]sqltypes.Key(nil), firstKeys[start+1:end]...),
			}
			nextLevel = append(nextLevel, inner)
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

// sortRef is one element of the permutation BulkBuild sorts in place of the
// entries: the position of an entry in the caller's slice, and a 64-bit
// digest of its key whose unsigned order never contradicts CompareKeys.
type sortRef struct {
	prefix uint64
	idx    int
}

// sortedPermutation returns the positions of entries in stable CompareKeys
// order. Keys that are all KindInt and all one length take the radix sort,
// which never calls Compare; anything else — NULLs, floats, strings, mixed
// kinds in a column, ragged lengths — takes the comparison sort.
func sortedPermutation(entries []Entry) []sortRef {
	perm := make([]sortRef, len(entries))
	if width, ok := intKeyWidth(entries); ok {
		for i := range perm {
			perm[i].idx = i
		}
		return radixSortIntKeys(entries, width, perm)
	}
	for i := range perm {
		perm[i] = sortRef{prefix: keyPrefix(entries[i].Key), idx: i}
	}
	// Distinct elements never compare equal (the index breaks every tie), so
	// the order is total and an unstable sort has exactly one result: the
	// stable one. CompareKeys runs only between keys whose prefixes agree.
	slices.SortFunc(perm, func(a, b sortRef) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if c := sqltypes.CompareKeys(entries[a.idx].Key, entries[b.idx].Key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	return perm
}

// intKeyWidth reports whether every key has the same length and only
// KindInt columns — the one shape on which Compare is integer comparison and
// CompareKeys never falls through to a length tie-break — and that length.
func intKeyWidth(entries []Entry) (int, bool) {
	width := len(entries[0].Key)
	for i := range entries {
		k := entries[i].Key
		if len(k) != width {
			return 0, false
		}
		for j := range k {
			if k[j].Kind != sqltypes.KindInt {
				return 0, false
			}
		}
	}
	return width, true
}

// radixSortIntKeys sorts perm (the identity permutation on entry) by
// least-significant-digit radix: last key column first, and within a column
// lowest byte first, each pass a stable counting sort, so earlier columns
// dominate and full ties keep input order. A byte position on which all
// values of a column agree is skipped — a column of ten distinct small ints
// is one pass, not eight — as is a column that is already in order.
func radixSortIntKeys(entries []Entry, width int, perm []sortRef) []sortRef {
	tmp := make([]sortRef, len(perm))
	for col := width - 1; col >= 0; col-- {
		// Flipping the sign bit maps int64 order onto uint64 order.
		const signBit = 1 << 63
		first := uint64(entries[perm[0].idx].Key[col].Int) ^ signBit
		last, diff, inOrder := first, uint64(0), true
		for i := range perm {
			p := uint64(entries[perm[i].idx].Key[col].Int) ^ signBit
			perm[i].prefix = p
			diff |= p ^ first
			inOrder = inOrder && p >= last
			last = p
		}
		if inOrder {
			continue
		}
		for shift := 0; shift < 64; shift += 8 {
			if (diff>>shift)&0xff == 0 {
				continue
			}
			var next [256]int
			for i := range perm {
				next[byte(perm[i].prefix>>shift)]++
			}
			pos := 0
			for d := range next {
				pos, next[d] = pos+next[d], pos
			}
			for _, r := range perm {
				d := byte(r.prefix >> shift)
				tmp[next[d]] = r
				next[d]++
			}
			perm, tmp = tmp, perm
		}
	}
	return perm
}

// Kind classes of a key's first column, in sqltypes.Compare's order: a
// missing column (the empty key sorts before every other) < NULL < numbers <
// strings. The class is the top two bits of the prefix.
const (
	classMissing uint64 = iota << 62
	classNull
	classNumber
	classString
)

// keyPrefix digests a key's first column into 64 bits such that
// keyPrefix(a) < keyPrefix(b) implies CompareKeys(a, b) < 0. The converse
// does not hold and need not: equal prefixes decide nothing, the comparator
// asks CompareKeys. Numbers contribute the top 62 bits of their float64
// image in order-preserving form — the image Compare itself uses between an
// int and a float, and a monotone one between two ints, so ints beyond 2^53
// that round to one float merely tie. Strings contribute their leading
// bytes, zero-padded (a proper prefix sorts first, as in strings.Compare).
//
// NaN is outside the contract: Compare calls it equal to every number, which
// is not an order, so no sort of such keys — this one or a comparison sort
// over CompareKeys alone — has a defined result.
func keyPrefix(k sqltypes.Key) uint64 {
	if len(k) == 0 {
		return classMissing
	}
	switch v := k[0]; v.Kind {
	case sqltypes.KindNull:
		return classNull
	case sqltypes.KindInt:
		return classNumber | floatOrder(float64(v.Int))>>2
	case sqltypes.KindFloat:
		return classNumber | floatOrder(v.Float)>>2
	default: // Compare orders every other kind by Str
		var lead uint64
		for i := 0; i < 8 && i < len(v.Str); i++ {
			lead |= uint64(v.Str[i]) << (56 - 8*i)
		}
		return classString | lead>>2
	}
}

// floatOrder maps a float64 to a uint64 whose unsigned order is the float's
// numeric order: negatives have all bits flipped, the rest the sign bit set.
// -0 and +0, equal to Compare, map to one value.
func floatOrder(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	bits := math.Float64bits(f)
	if bits>>63 != 0 {
		return ^bits
	}
	return bits | 1<<63
}
