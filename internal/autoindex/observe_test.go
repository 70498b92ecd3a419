package autoindex

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/session"
)

func TestIsDML(t *testing.T) {
	for sql, want := range map[string]bool{
		"SELECT 1 FROM t":              true,
		"  \n\tselect 1 from t":        true,
		"InSeRt INTO t (a) VALUES (1)": true,
		"update t set a = 1":           true,
		"DELETE FROM t":                true,
		"CREATE INDEX i ON t (a)":      false,
		"DROP INDEX i":                 false,
		"EXPLAIN SELECT 1 FROM t":      false,
		"SELEC":                        false,
		"":                             false,
	} {
		if got := isDML(sql); got != want {
			t.Errorf("isDML(%q) = %v, want %v", sql, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = isDML("select a from t where b = 1") }); allocs != 0 {
		t.Errorf("isDML allocates %v times", allocs)
	}
}

// TestObserveConcurrentWithRecommend runs two clients through the session
// layer with the manager attached — their statements reach the template
// store's shape path from two goroutines — while a third goroutine runs
// tuning rounds, which read the store and parse the remembered samples.
// Run it under -race.
func TestObserveConcurrentWithRecommend(t *testing.T) {
	db, _ := readHeavyDB(t)
	sm := session.New(db, session.Options{Seed: 1})
	m := New(db, Options{MCTS: mctsFast()})
	m.UseSessions(sm)
	m.Attach()
	defer m.Detach()

	const perClient = 300
	clients := []func(i int) string{
		func(i int) string {
			if i%3 == 0 {
				return fmt.Sprintf("SELECT id FROM ev WHERE kind = 'k%d' AND score > %d.5", i%6, i%90)
			}
			return fmt.Sprintf("SELECT score FROM ev WHERE user_id = %d", i%800)
		},
		func(i int) string {
			if i%2 == 0 {
				return fmt.Sprintf("UPDATE ev SET score = score + 1 WHERE id = %d", i)
			}
			return fmt.Sprintf("INSERT INTO ev (id, user_id, kind, score) VALUES (%d, %d, 'k%d', %d.0)", 100000+i, i%800, i%6, i%100)
		},
	}
	var wg sync.WaitGroup
	for _, gen := range clients {
		wg.Add(1)
		go func(gen func(int) string) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := sm.Exec(gen(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(gen)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := m.Recommend(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	store := m.TemplateStore()
	if store.Len() != 4 {
		t.Errorf("4 statement forms ran, the store holds %d templates", store.Len())
	}
	matches, misses := store.MatchStats()
	if matches+misses != 2*perClient || misses != 4 {
		t.Errorf("%d statements ran: %d matches, %d misses", 2*perClient, matches, misses)
	}
	var total float64
	for _, q := range store.Workload().Queries {
		total += q.Weight
	}
	if total != 2*perClient {
		t.Errorf("workload weight %v, want %d", total, 2*perClient)
	}
}
