package btree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sqltypes"
)

func BenchmarkInsertSequential(b *testing.B) {
	tr := New(DefaultOrder)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(sqltypes.Key{sqltypes.NewInt(int64(i))}, RID{})
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	tr := New(DefaultOrder)
	rng := rand.New(rand.NewSource(1))
	keys := make([]sqltypes.Key, b.N)
	for i := range keys {
		keys[i] = sqltypes.Key{sqltypes.NewInt(rng.Int63())}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(keys[i], RID{})
	}
}

func BenchmarkSearchEq(b *testing.B) {
	tr := New(DefaultOrder)
	for i := 0; i < 100000; i++ {
		tr.Insert(sqltypes.Key{sqltypes.NewInt(int64(i))}, RID{Page: int32(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SearchEq(sqltypes.Key{sqltypes.NewInt(int64(i % 100000))})
	}
}

func BenchmarkRangeScan100(b *testing.B) {
	tr := New(DefaultOrder)
	for i := 0; i < 100000; i++ {
		tr.Insert(sqltypes.Key{sqltypes.NewInt(int64(i))}, RID{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i % 99000)
		count := 0
		tr.ScanRange(sqltypes.Key{sqltypes.NewInt(lo)}, sqltypes.Key{sqltypes.NewInt(lo + 100)},
			true, false, func(e Entry) bool { count++; return true })
	}
}

func BenchmarkCompositeKeyInsert(b *testing.B) {
	tr := New(DefaultOrder)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(sqltypes.Key{
			sqltypes.NewInt(int64(i % 1000)),
			sqltypes.NewString("status"),
			sqltypes.NewInt(int64(i)),
		}, RID{})
	}
}

// BenchmarkBulkBuild100k builds 100k shuffled entries per key shape: the
// radix path at one varying byte, at five, and over three columns; the
// comparison path on strings that share their leading bytes and on a column
// of mixed kinds.
func BenchmarkBulkBuild100k(b *testing.B) {
	const n = 100000
	shapes := []struct {
		name string
		key  func(i int) sqltypes.Key
	}{
		{"int_unique", func(i int) sqltypes.Key {
			return sqltypes.Key{sqltypes.NewInt(int64(i) * 10_000_019 % (1 << 40))}
		}},
		{"int_lowcard", func(i int) sqltypes.Key {
			return sqltypes.Key{sqltypes.NewInt(int64(i%10) + 1)}
		}},
		{"int_composite3", func(i int) sqltypes.Key {
			return sqltypes.Key{sqltypes.NewInt(int64(i % 3000)), sqltypes.NewInt(1), sqltypes.NewInt(int64(i%10) + 1)}
		}},
		{"string_leading", func(i int) sqltypes.Key {
			return sqltypes.Key{sqltypes.NewString(fmt.Sprintf("customer-%06d", i%1000)), sqltypes.NewInt(int64(i % 10))}
		}},
		{"mixed", func(i int) sqltypes.Key {
			switch i % 4 {
			case 0:
				return sqltypes.Key{sqltypes.Null(), sqltypes.NewInt(int64(i))}
			case 1:
				return sqltypes.Key{sqltypes.NewInt(int64(i % 5000)), sqltypes.NewInt(int64(i))}
			case 2:
				return sqltypes.Key{sqltypes.NewFloat(float64(i%5000) + 0.5), sqltypes.NewInt(int64(i))}
			default:
				return sqltypes.Key{sqltypes.NewString(fmt.Sprintf("k%d", i%5000)), sqltypes.NewInt(int64(i))}
			}
		}},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			entries := make([]Entry, n)
			for i := range entries {
				entries[i] = Entry{Key: shape.key(i), RID: RID{Page: int32(i / 64), Slot: int32(i % 64)}}
			}
			rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				builtTree = BulkBuild(entries, DefaultOrder)
			}
		})
	}
}

// builtTree keeps the benchmarked call's result live.
var builtTree *Tree
