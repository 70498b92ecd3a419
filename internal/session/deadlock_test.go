package session

import (
	"testing"
	"time"

	"repro/internal/engine"
)

// TestNestedExclusiveInsideReadDeadlocks documents the re-entrancy hazard
// the sessionlock analyzer exists to prevent: Manager's RWMutex does not
// re-enter, so Exclusive inside a Read closure blocks forever — Exclusive
// waits for the reader to release, and the reader is the very goroutine
// asking. The test asserts the nested acquisition is still blocked after a
// grace period (the goroutine is deliberately leaked: there is no way to
// unwind a deadlocked mutex). If this test ever FAILS, the lock became
// re-entrant and the analyzer's rule 1 — plus every suppression reasoning
// about it — must be revisited.
//
// The lint suite skips _test.go files, so spelling out the forbidden
// pattern here does not trip the analyzer; in shipped code the nested
// Exclusive below would be flagged as "re-enters the session lock inside a
// Read context".
func TestNestedExclusiveInsideReadDeadlocks(t *testing.T) {
	t.Parallel()
	db := engine.New()
	m := New(db, Options{})

	entered := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		_ = m.Read(func(engine.Reader) error {
			close(entered)
			// Deadlock: the write lock waits on this goroutine's own
			// read lock. Never returns.
			_ = m.Exclusive(func(*engine.DB) error { return nil })
			close(finished)
			return nil
		})
	}()

	<-entered
	select {
	case <-finished:
		t.Fatal("nested Exclusive inside Read completed: the session lock became re-entrant, invalidating sessionlock's deadlock analysis")
	case <-time.After(200 * time.Millisecond):
		// Still blocked, as the RWMutex contract requires.
	}
}
