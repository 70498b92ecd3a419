// Package sessiondb holds the violation sessionlock's deleted rule 3
// flagged: reaching the database around the session-lock seams.
package sessiondb

import "repro/internal/session"

type manager struct {
	sessions *session.Manager
}

func (m *manager) staleLookup(name string) bool {
	return m.sessions.DB().Catalog().Index(name) != nil
}
