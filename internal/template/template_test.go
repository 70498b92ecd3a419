package template

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sqlparser"
)

// fingerprintOf parses sql and returns its fingerprint.
func fingerprintOf(t *testing.T, sql string) string {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	fp, _, _ := Fingerprint(stmt)
	return fp
}

func TestFingerprintMergesLiteralVariants(t *testing.T) {
	fp1 := fingerprintOf(t, "SELECT * FROM t WHERE a = 1 AND b > 2")
	fp2 := fingerprintOf(t, "SELECT * FROM t WHERE a = 99 AND b > 1234")
	if fp1 != fp2 {
		t.Errorf("literal variants must share fingerprint:\n%s\n%s", fp1, fp2)
	}
	fp3 := fingerprintOf(t, "SELECT * FROM t WHERE a = 1 AND c > 2")
	if fp1 == fp3 {
		t.Error("different columns must not share fingerprint")
	}
}

func TestFingerprintInListCollapses(t *testing.T) {
	fp1 := fingerprintOf(t, "SELECT * FROM t WHERE a IN (1, 2, 3)")
	fp2 := fingerprintOf(t, "SELECT * FROM t WHERE a IN (7, 8, 9, 10, 11)")
	if fp1 != fp2 {
		t.Errorf("IN lists of different lengths must merge:\n%s\n%s", fp1, fp2)
	}
}

func TestFingerprintWriteStatements(t *testing.T) {
	if fingerprintOf(t, "INSERT INTO t (a, b) VALUES (1, 'x')") != fingerprintOf(t, "INSERT INTO t (a, b) VALUES (2, 'y')") {
		t.Error("insert variants must merge")
	}
	if fingerprintOf(t, "UPDATE t SET a = 5 WHERE b = 1") != fingerprintOf(t, "UPDATE t SET a = 6 WHERE b = 2") {
		t.Error("update variants must merge")
	}
	if fingerprintOf(t, "DELETE FROM t WHERE a < 5") != fingerprintOf(t, "DELETE FROM t WHERE a < 50") {
		t.Error("delete variants must merge")
	}
}

func TestFingerprintReparsable(t *testing.T) {
	fp := fingerprintOf(t, "SELECT a FROM t WHERE b = 3 AND c IN (1,2) ORDER BY a LIMIT 5")
	if _, err := sqlparser.Parse(fp); err != nil {
		t.Errorf("fingerprint must re-parse: %v\n%s", err, fp)
	}
}

func TestObserveCountsFrequencies(t *testing.T) {
	s := NewStore(100)
	for i := 0; i < 10; i++ {
		if _, _, err := s.ObserveSQL(fmt.Sprintf("SELECT * FROM t WHERE a = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("all queries share one template, got %d", s.Len())
	}
	tmpl := s.Templates()[0]
	if tmpl.Frequency != 10 {
		t.Errorf("frequency: %v", tmpl.Frequency)
	}
	m, miss := s.MatchStats()
	if m != 9 || miss != 1 {
		t.Errorf("match stats: %d/%d", m, miss)
	}
}

func TestCapacityEviction(t *testing.T) {
	s := NewStore(3)
	// Template A is hot.
	for i := 0; i < 5; i++ {
		mustObserve(t, s, "SELECT * FROM a WHERE x = 1")
	}
	mustObserve(t, s, "SELECT * FROM b WHERE x = 1")
	mustObserve(t, s, "SELECT * FROM c WHERE x = 1")
	// Store full; new template evicts the least-frequent (b or c, older first).
	mustObserve(t, s, "SELECT * FROM d WHERE x = 1")
	if s.Len() != 3 {
		t.Fatalf("capacity: %d", s.Len())
	}
	top := s.Templates()[0]
	if top.Frequency != 5 {
		t.Error("hot template must survive eviction")
	}
}

// TestDecayScalesTheWindowStart: a decay between two windows must not eat
// into the next window's count. Ten matches, a window (trend 5), a decay to
// 0.3, two matches: the second window counted two, so the trend is
// 0.5·2 + 0.5·5.
func TestDecayScalesTheWindowStart(t *testing.T) {
	s := NewStore(100)
	for i := 0; i < 10; i++ {
		mustObserve(t, s, "SELECT * FROM t WHERE x = 1")
	}
	s.CloseWindow(0.5)
	s.Decay(0.3, 0.5)
	for i := 0; i < 2; i++ {
		mustObserve(t, s, "SELECT * FROM t WHERE x = 1")
	}
	s.CloseWindow(0.5)
	if got := s.Templates()[0].Trend; math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("trend = %v, want 3.5", got)
	}
}

func TestDecayDropsColdTemplates(t *testing.T) {
	s := NewStore(100)
	for i := 0; i < 8; i++ {
		mustObserve(t, s, "SELECT * FROM hot WHERE x = 1")
	}
	mustObserve(t, s, "SELECT * FROM cold WHERE x = 1")
	dropped := s.Decay(0.25, 1.0)
	if dropped != 1 {
		t.Errorf("cold template should drop: dropped=%d", dropped)
	}
	if s.Len() != 1 {
		t.Errorf("remaining: %d", s.Len())
	}
	if s.Templates()[0].Frequency != 2 {
		t.Errorf("hot frequency after decay: %v", s.Templates()[0].Frequency)
	}
}

func TestStalenessRatio(t *testing.T) {
	s := NewStore(100)
	mustObserve(t, s, "SELECT * FROM old1 WHERE x = 1")
	mustObserve(t, s, "SELECT * FROM old2 WHERE x = 1")
	for i := 0; i < 50; i++ {
		mustObserve(t, s, "SELECT * FROM fresh WHERE x = 1")
	}
	ratio := s.StalenessRatio(10)
	if ratio < 0.6 || ratio > 0.7 {
		t.Errorf("2 of 3 templates stale: ratio=%.2f", ratio)
	}
}

func TestWorkloadConversion(t *testing.T) {
	s := NewStore(100)
	for i := 0; i < 7; i++ {
		mustObserve(t, s, fmt.Sprintf("SELECT * FROM t WHERE a = %d", i))
	}
	for i := 0; i < 3; i++ {
		mustObserve(t, s, fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i))
	}
	w := s.Workload()
	if len(w.Queries) != 2 {
		t.Fatalf("want 2 weighted queries, got %d", len(w.Queries))
	}
	if w.Queries[0].Weight != 7 || w.Queries[1].Weight != 3 {
		t.Errorf("weights by frequency, highest first: %v, %v", w.Queries[0].Weight, w.Queries[1].Weight)
	}
}

func TestCompressionRatioOnRepetitiveStream(t *testing.T) {
	// The paper's motivation: millions of queries, few templates.
	s := NewStore(DefaultCapacity)
	n := 20000
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			mustObserve(t, s, fmt.Sprintf("SELECT * FROM acct WHERE id = %d", i))
		case 1:
			mustObserve(t, s, fmt.Sprintf("UPDATE acct SET bal = %d WHERE id = %d", i, i))
		case 2:
			mustObserve(t, s, fmt.Sprintf("SELECT bal FROM acct WHERE owner = 'u%d'", i))
		default:
			mustObserve(t, s, fmt.Sprintf("INSERT INTO log (id, msg) VALUES (%d, 'm')", i))
		}
	}
	if s.Len() != 4 {
		t.Errorf("20k queries should collapse to 4 templates, got %d", s.Len())
	}
}

func mustObserve(t *testing.T, s *Store, sql string) {
	t.Helper()
	if _, _, err := s.ObserveSQL(sql); err != nil {
		t.Fatalf("ObserveSQL(%q): %v", sql, err)
	}
}

func TestCloseWindowTrendTracking(t *testing.T) {
	s := NewStore(100)
	// Window 1: hot template seen 10x, cold 2x.
	for i := 0; i < 10; i++ {
		mustObserve(t, s, "SELECT * FROM hot WHERE x = 1")
	}
	for i := 0; i < 2; i++ {
		mustObserve(t, s, "SELECT * FROM cold WHERE x = 1")
	}
	s.CloseWindow(0.5)
	// Window 2: hot fades, cold surges.
	for i := 0; i < 1; i++ {
		mustObserve(t, s, "SELECT * FROM hot WHERE x = 1")
	}
	for i := 0; i < 12; i++ {
		mustObserve(t, s, "SELECT * FROM cold WHERE x = 1")
	}
	s.CloseWindow(0.5)

	var hot, cold *Template
	for _, tmpl := range s.Templates() {
		if strings.Contains(tmpl.Fingerprint, "cold") {
			cold = tmpl
		} else {
			hot = tmpl
		}
	}
	// EWMA: hot = 0.5*1 + 0.5*(0.5*10) = 3.0; cold = 0.5*12 + 0.5*(0.5*2) = 6.5
	if hot.Trend >= cold.Trend {
		t.Errorf("trend should track the shift: hot=%.1f cold=%.1f", hot.Trend, cold.Trend)
	}
	// Cumulative frequency still favors... hot=11 vs cold=14 here, so check
	// forecast ordering explicitly.
	fw := s.ForecastWorkload()
	if len(fw.Queries) != 2 {
		t.Fatalf("forecast queries: %d", len(fw.Queries))
	}
	var fwHot, fwCold float64
	for _, q := range fw.Queries {
		if strings.Contains(q.SQL, "cold") {
			fwCold = q.Weight
		} else {
			fwHot = q.Weight
		}
	}
	if fwCold <= fwHot {
		t.Errorf("forecast should weight the surging template higher: hot=%.1f cold=%.1f",
			fwHot, fwCold)
	}
}

func TestForecastFallbackForNewTemplates(t *testing.T) {
	s := NewStore(100)
	mustObserve(t, s, "SELECT * FROM fresh WHERE x = 1")
	// No CloseWindow yet: trend is zero → fallback weight.
	fw := s.ForecastWorkload()
	if len(fw.Queries) != 1 || fw.Queries[0].Weight <= 0 {
		t.Fatalf("new template must get a positive fallback weight: %+v", fw.Queries)
	}
}

func TestPropertyStoreInvariants(t *testing.T) {
	// Random streams: capacity is never exceeded and total frequency never
	// exceeds the observation count.
	f := func(ops []uint8, capSeed uint8) bool {
		capacity := int(capSeed%16) + 2
		s := NewStore(capacity)
		for i, op := range ops {
			sql := fmt.Sprintf("SELECT c%d FROM t%d WHERE x = %d", op%8, op%5, i)
			if _, _, err := s.ObserveSQL(sql); err != nil {
				return false
			}
			if s.Len() > capacity {
				return false
			}
		}
		var total float64
		for _, tmpl := range s.Templates() {
			total += tmpl.Frequency
		}
		return total <= float64(len(ops))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDecayMonotone(t *testing.T) {
	f := func(n uint8) bool {
		s := NewStore(100)
		for i := 0; i < int(n%40)+1; i++ {
			if _, _, err := s.ObserveSQL(fmt.Sprintf("SELECT a FROM t WHERE x = %d", i)); err != nil {
				return false
			}
		}
		before := s.Len()
		s.Decay(0.5, 0.0)
		return s.Len() <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
