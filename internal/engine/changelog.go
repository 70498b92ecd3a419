package engine

import (
	"sync"

	"repro/internal/btree"
	"repro/internal/sqltypes"
)

// ChangeOp is the kind of one logged write.
type ChangeOp int

const (
	// ChangeInsert records a new tuple at RID (New holds it).
	ChangeInsert ChangeOp = iota
	// ChangeDelete records a tombstoned tuple (Old holds the last image).
	ChangeDelete
	// ChangeUpdate records an in-place rewrite (Old and New both set).
	ChangeUpdate
)

// ChangeEntry is one logged write. LSN is assigned by the log on Append,
// strictly increasing from 1; an online index build replays entries up to
// its last_sync watermark.
type ChangeEntry struct {
	LSN   uint64
	Table string
	Op    ChangeOp
	RID   btree.RID
	Old   sqltypes.Tuple
	New   sqltypes.Tuple
}

// ChangeLog accumulates the writes that land while an online index build is
// scanning and bulk-building off to the side. It is internally locked:
// writers append under the session layer's exclusive lock while the builder
// drains concurrently without any session lock.
type ChangeLog struct {
	mu      sync.Mutex
	entries []ChangeEntry
}

// NewChangeLog returns an empty log.
func NewChangeLog() *ChangeLog { return &ChangeLog{} }

// Append stamps the entry with the next LSN and records it.
func (l *ChangeLog) Append(e ChangeEntry) {
	l.mu.Lock()
	e.LSN = uint64(len(l.entries)) + 1
	l.entries = append(l.entries, e)
	l.mu.Unlock()
}

// LSN returns the highest LSN assigned so far (0 when empty).
func (l *ChangeLog) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.entries))
}

// Since returns up to max entries with LSN > after, in LSN order (all of
// them when max <= 0). LSNs are dense from 1, so entry i carries LSN i+1 and
// the unreplayed tail starts at index after. The returned slice is a copy:
// writers keep appending while the builder replays it.
func (l *ChangeLog) Since(after uint64, max int) []ChangeEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after >= uint64(len(l.entries)) {
		return nil
	}
	tail := l.entries[after:]
	if max > 0 && max < len(tail) {
		tail = tail[:max]
	}
	return append([]ChangeEntry(nil), tail...)
}

// SetChangeLog attaches (or with nil detaches) the write change log. The
// caller must hold the session layer's lock discipline: attach under a
// reader lock (which excludes writers) before the snapshot scan, detach
// under the exclusive lock at publish/abort.
func (db *DB) SetChangeLog(l *ChangeLog) { db.changeLog = l }

// AttachedChangeLog returns the currently attached change log (nil when no
// online build is in flight).
func (db *DB) AttachedChangeLog() *ChangeLog { return db.changeLog }
