package template

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/session"
)

// TestObserveConcurrentThroughSessions runs two clients through one session
// layer into a bare attached store. Both mostly read, so the observer fires
// from parallel goroutines under the shared lock; one also writes. Every
// statement must be booked once, on the template of its form. Run it under
// -race.
func TestObserveConcurrentThroughSessions(t *testing.T) {
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE ev (id BIGINT, user_id BIGINT, kind TEXT, score DOUBLE, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO ev (id, user_id, kind, score) VALUES (%d, %d, 'k%d', %d.0)",
			i, i%80, i%6, i%100)); err != nil {
			t.Fatal(err)
		}
	}
	sm := session.New(db, session.Options{Seed: 1})
	store := NewStore(0)
	_ = sm.Exclusive(func(db *engine.DB) error { store.Attach(db); return nil })
	defer func() { _ = sm.Exclusive(func(db *engine.DB) error { store.Detach(db); return nil }) }()

	const perClient = 300
	clients := []func(i int) string{
		func(i int) string {
			if i%3 == 0 {
				return fmt.Sprintf("SELECT id FROM ev WHERE kind = 'k%d' AND score > %d.5", i%6, i%90)
			}
			return fmt.Sprintf("SELECT score FROM ev WHERE user_id = %d", i%80)
		},
		func(i int) string {
			if i%5 == 0 {
				return fmt.Sprintf("UPDATE ev SET score = score + 1 WHERE id = %d", i)
			}
			return fmt.Sprintf("SELECT kind FROM ev WHERE id = %d", i)
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
	wg.Wait()

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
