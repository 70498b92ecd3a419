// Package clientpkg is a sessionlock fixture: lock re-entry, direct and
// transitive.
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
	return s.m.Read(func(r engine.Reader) error {
		return s.m.Exclusive(func(db *engine.DB) error { // want "re-enters the session lock inside a Read context"
			return nil
		})
	})
}

// Flagged: the same deadlock, one call deep — the analyzer follows the
// call graph from the Read closure into flush.
func (s *service) refreshViaHelper() error {
	return s.m.Read(func(r engine.Reader) error {
		return s.flush() // want "re-enters the session lock inside a Read context \\(path: "
	})
}

// Flagged too: flush's only call site is under the reader lock, so its own
// Exclusive call re-enters at every possible invocation.
func (s *service) flush() error {
	return s.m.Exclusive(func(db *engine.DB) error { return nil }) // want "re-enters the session lock inside a Read context"
}

// Allowed: pure reads under the reader lock.
func (s *service) readUnderRead() (int64, error) {
	var n int64
	err := s.m.Read(func(r engine.Reader) error {
		n = r.StatementCount()
		return nil
	})
	return n, err
}
