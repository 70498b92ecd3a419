// Package clientpkg is a sessionlock fixture for rules 1 and 2: lock
// re-entry (direct and transitive) and mutation under the reader lock. It
// is not an autoindex-named package, so rule 3 (bare engine.DB access) does
// not apply here.
package clientpkg

import (
	"repro/internal/engine"
	"repro/internal/session"
)

type service struct {
	m *session.Manager
}

// Flagged: nested Exclusive inside Read is a guaranteed self-deadlock — the
// RWMutex does not re-enter.
func (s *service) refresh() error {
	return s.m.Read(func(db *engine.DB) error {
		return s.m.Exclusive(func(db *engine.DB) error { // want "re-enters the session lock inside a Read context"
			return nil
		})
	})
}

// Flagged: the same deadlock, one call deep — the analyzer follows the
// call graph from the Read closure into flush.
func (s *service) refreshViaHelper() error {
	return s.m.Read(func(db *engine.DB) error {
		return s.flush() // want "re-enters the session lock inside a Read context \\(path: "
	})
}

// Flagged too: flush's only call site is under the reader lock, so its own
// Exclusive call re-enters at every possible invocation.
func (s *service) flush() error {
	return s.m.Exclusive(func(db *engine.DB) error { return nil }) // want "re-enters the session lock inside a Read context"
}

// Flagged: a mutation under the shared reader lock races every concurrent
// reader.
func (s *service) mutateUnderRead() error {
	return s.m.Read(func(db *engine.DB) error {
		_, err := db.Exec("DROP INDEX ix_orders_user") // want "mutates engine state under the reader lock"
		return err
	})
}

// Allowed: mutation under the exclusive lock is the contract.
func (s *service) mutateUnderExclusive() error {
	return s.m.Exclusive(func(db *engine.DB) error {
		_, err := db.Exec("CREATE INDEX ix_orders_user ON orders (user_id)")
		return err
	})
}

// Allowed: pure reads under the reader lock.
func (s *service) readUnderRead() (int64, error) {
	var n int64
	err := s.m.Read(func(db *engine.DB) error {
		n = db.StatementCount()
		return nil
	})
	return n, err
}
