// Package sqltypes defines the runtime value model shared by the parser,
// storage engine, planner and executor: typed scalar values, tuples, and
// total-order comparison used by B+Tree keys and sort operators.
package sqltypes

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types the engine supports.
type Kind uint8

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "TEXT"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a scalar SQL value. The zero Value is NULL.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt wraps an int64.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewFloat wraps a float64.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// NewString wraps a string.
func NewString(v string) Value { return Value{Kind: KindString, Str: v} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat coerces numeric values to float64; strings parse if possible.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.Int)
	case KindFloat:
		return v.Float
	case KindString:
		f, _ := strconv.ParseFloat(v.Str, 64)
		return f
	default:
		return 0
	}
}

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	default:
		return "?"
	}
}

// Compare defines a total order over values: NULL < numbers < strings,
// with ints and floats compared numerically against each other.
func Compare(a, b Value) int {
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == KindNull && b.Kind == KindNull:
			return 0
		case a.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	aNum := a.Kind == KindInt || a.Kind == KindFloat
	bNum := b.Kind == KindInt || b.Kind == KindFloat
	switch {
	case aNum && bNum:
		if a.Kind == KindInt && b.Kind == KindInt {
			switch {
			case a.Int < b.Int:
				return -1
			case a.Int > b.Int:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	case aNum:
		return -1
	case bNum:
		return 1
	default:
		return strings.Compare(a.Str, b.Str)
	}
}

// Equal reports whether a and b compare equal. NULL never equals anything,
// matching SQL three-valued comparison used by predicate evaluation.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// Tuple is an ordered row of values.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Key is a composite index key.
type Key []Value

// CompareKeys compares two composite keys lexicographically. A shorter key
// that is a prefix of a longer one compares as less, which gives prefix
// range scans their semantics.
func CompareKeys(a, b Key) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// HasPrefix reports whether key k starts with prefix p.
func (k Key) HasPrefix(p Key) bool {
	if len(p) > len(k) {
		return false
	}
	for i := range p {
		if Compare(k[i], p[i]) != 0 {
			return false
		}
	}
	return true
}

// EncodedSize approximates the on-page byte width of the value; used for
// index size estimation (hypothetical indexes and storage budgets).
func (v Value) EncodedSize() int {
	switch v.Kind {
	case KindInt:
		return 8
	case KindFloat:
		return 8
	case KindString:
		return 4 + len(v.Str)
	default:
		return 1
	}
}
