package sqltypes

import (
	"testing"
	"testing/quick"
)

func TestCompareOrderAcrossKinds(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0},
		{Null(), NewInt(0), -1},
		{NewInt(0), Null(), 1},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewInt(5), NewString("a"), -1},
		{NewString("a"), NewInt(5), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null(), Null()) {
		t.Error("NULL = NULL must be false (three-valued logic)")
	}
	if Equal(Null(), NewInt(1)) || Equal(NewInt(1), Null()) {
		t.Error("NULL never equals a value")
	}
	if !Equal(NewInt(7), NewInt(7)) {
		t.Error("7 = 7 must hold")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := NewInt(a), NewInt(b), NewInt(c)
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 {
			return Compare(va, vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareKeysPrefixOrdering(t *testing.T) {
	short := Key{NewInt(1)}
	long := Key{NewInt(1), NewInt(5)}
	if CompareKeys(short, long) != -1 {
		t.Error("prefix key must sort before its extensions")
	}
	if CompareKeys(long, short) != 1 {
		t.Error("extension must sort after its prefix")
	}
	if CompareKeys(long, long) != 0 {
		t.Error("key must equal itself")
	}
}

func TestKeyHasPrefix(t *testing.T) {
	k := Key{NewInt(1), NewString("x"), NewFloat(2.5)}
	if !k.HasPrefix(Key{NewInt(1)}) {
		t.Error("single-column prefix should match")
	}
	if !k.HasPrefix(Key{NewInt(1), NewString("x")}) {
		t.Error("two-column prefix should match")
	}
	if k.HasPrefix(Key{NewInt(2)}) {
		t.Error("mismatching prefix must not match")
	}
	if k.HasPrefix(Key{NewInt(1), NewString("x"), NewFloat(2.5), NewInt(9)}) {
		t.Error("longer prefix than key must not match")
	}
}

func TestValueStringLiterals(t *testing.T) {
	if got := NewString("o'brien").String(); got != "'o''brien'" {
		t.Errorf("string literal escaping: got %s", got)
	}
	if got := NewInt(-42).String(); got != "-42" {
		t.Errorf("int literal: got %s", got)
	}
	if got := Null().String(); got != "NULL" {
		t.Errorf("null literal: got %s", got)
	}
}

func TestCoercions(t *testing.T) {
	if NewInt(3).AsFloat() != 3.0 {
		t.Error("int→float")
	}
	if NewString("2.5").AsFloat() != 2.5 {
		t.Error("string→float parses")
	}
	if Null().AsFloat() != 0 {
		t.Error("null→float is 0")
	}
}

func TestEncodedSize(t *testing.T) {
	if NewInt(1).EncodedSize() != 8 {
		t.Error("int width")
	}
	if NewString("abcd").EncodedSize() != 8 {
		t.Error("string width = 4 + len")
	}
	if Null().EncodedSize() != 1 {
		t.Error("null width")
	}
}

func TestTupleClone(t *testing.T) {
	orig := Tuple{NewInt(1), NewString("a")}
	cp := orig.Clone()
	cp[0] = NewInt(9)
	if orig[0].Int != 1 {
		t.Error("clone must not alias the original")
	}
}
