// Package autoindex is a sessionlock fixture for rule 3: the package that
// tunes a live, session-managed database holds no *engine.DB of its own —
// the database arrives only as the closure parameter of Read/Exclusive — so
// the one unlocked way to it is session.Manager.DB(), which races concurrent
// DDL and online index publishes.
package autoindex

import (
	"repro/internal/engine"
	"repro/internal/session"
)

type manager struct {
	sessions *session.Manager
}

// Flagged: a stale read off the database handed out around the lock.
func (m *manager) staleLookup(name string) bool {
	return m.sessions.DB().Catalog().Index(name) != nil // want "outside the session-lock seams"
}

// Allowed: the same lookup on the closure's database, under the reader lock.
func (m *manager) lockedLookup(name string) bool {
	found := false
	_ = m.sessions.Read(func(db *engine.DB) error {
		found = db.Catalog().Index(name) != nil
		return nil
	})
	return found
}

// Allowed: a helper that takes the database as an argument — its only call
// site is a lock closure, so it runs under that lock.
func (m *manager) drop(name string) error {
	return m.sessions.Exclusive(func(db *engine.DB) error { return dropOn(db, name) })
}

func dropOn(db *engine.DB, name string) error { return db.DropIndex(name) }

// Allowed: construction reads the catalog off the database it is given,
// before the manager (and any session over it) exists.
func newManager(db *engine.DB) *manager {
	_ = db.Catalog().Tables()
	return &manager{sessions: session.New(db, session.Options{})}
}

// Allowed: a suppression directive with a stated reason silences the
// finding.
func (m *manager) shutdownStats() int64 {
	//autoindexlint:ignore sessionlock every session has been stopped by now
	return m.sessions.DB().StatementCount()
}
