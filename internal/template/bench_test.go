package template

import (
	"fmt"
	"testing"

	"repro/internal/sqlparser"
)

// BenchmarkObserve measures the SQL2Template hot path for an already-known
// template (the common case the paper's Fig. 8 overhead numbers hinge on),
// including the cost of formatting the statement text.
func BenchmarkObserve(b *testing.B) {
	s := NewStore(0)
	if _, _, err := s.ObserveSQL("SELECT bal FROM acct WHERE id = 1"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.ObserveSQL(fmt.Sprintf("SELECT bal FROM acct WHERE id = %d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveHit isolates a shape hit — what every statement of a
// steady workload costs on the statement path: one token scan, one map
// lookup, no parse and no allocation.
func BenchmarkObserveHit(b *testing.B) {
	s := NewStore(0)
	stream := make([]string, 64)
	for i := range stream {
		stream[i] = fmt.Sprintf("SELECT c_last, c_credit, c_balance FROM customer WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d", i%4+1, i%10+1, i*37)
	}
	if _, _, err := s.ObserveSQL(stream[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.ObserveSQL(stream[i%len(stream)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveChurn measures a store at capacity with constant misses
// (worst case: every statement is a new template, forcing eviction).
func BenchmarkObserveChurn(b *testing.B) {
	s := NewStore(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf("SELECT c%d FROM t%d WHERE x = 1", i%1000, i%1000)
		if _, _, err := s.ObserveSQL(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprint isolates parse + normalization without store
// bookkeeping.
func BenchmarkFingerprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stmt, err := sqlparser.Parse(
			"UPDATE acct SET bal = bal - 25.50, cnt = cnt + 1 WHERE id = 42 AND region IN (1,2,3)")
		if err != nil {
			b.Fatal(err)
		}
		Fingerprint(stmt)
	}
}
