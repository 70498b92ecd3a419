package session

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
)

// BuildState is one phase of an online index build's lifecycle.
type BuildState int

const (
	// BuildPending: created, nothing ran yet.
	BuildPending BuildState = iota
	// BuildSnapshot: change log attached, heap snapshot scan in progress.
	BuildSnapshot
	// BuildBulk: bulk-building the offline trees from the snapshot.
	BuildBulk
	// BuildCatchup: replaying logged writes toward the last_sync watermark.
	BuildCatchup
	// BuildPublished: index registered in the catalog; terminal success.
	BuildPublished
	// BuildFailed: build aborted after exhausting retries; terminal failure.
	BuildFailed
)

func (s BuildState) String() string {
	switch s {
	case BuildPending:
		return "pending"
	case BuildSnapshot:
		return "snapshot"
	case BuildBulk:
		return "bulk"
	case BuildCatchup:
		return "catchup"
	case BuildPublished:
		return "published"
	case BuildFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BuildMonitor observes online-build state transitions. Implementations
// must be safe to call on a nil receiver, mirroring btree.Monitor's
// contract, so callers never need nil checks.
type BuildMonitor interface {
	BuildStateChanged(index string, state BuildState)
}

// ErrCode classifies a build failure into one of three bands, following the
// async-index convention: success, temporary (the build is retried with
// seeded backoff) and permanent. The band is unexported, so a code comes
// only from the named values or Classify; no integer converts to one.
type ErrCode struct{ band uint8 }

var (
	// CodeOK marks a successful build. It is ErrCode's zero value.
	CodeOK = ErrCode{}
	// CodeTransient marks a retryable failure (injected transient faults,
	// latency-class errors).
	CodeTransient = ErrCode{band: 1}
	// CodePermanent marks a non-retryable failure (hard IO faults,
	// validation errors, cancelled contexts).
	CodePermanent = ErrCode{band: 2}
)

// Temporary reports whether the code is in the retryable band.
func (c ErrCode) Temporary() bool { return c == CodeTransient }

// String names the code's band: OK, temporary or permanent.
func (c ErrCode) String() string {
	switch {
	case c == CodeOK:
		return "OK"
	case c.Temporary():
		return "temporary"
	default:
		return "permanent"
	}
}

// Classify maps an error to its ErrCode band: nil is CodeOK, retryable
// injected faults are CodeTransient, everything else is CodePermanent.
// Exported so apply layers can stamp the same classification on their own
// reports.
func Classify(err error) ErrCode {
	switch {
	case err == nil:
		return CodeOK
	case fault.IsTransient(err):
		return CodeTransient
	default:
		return CodePermanent
	}
}

// BuildReport summarizes one BuildIndexOnline call.
type BuildReport struct {
	// Name is the index name (normalized).
	Name string
	// State is the terminal state: BuildPublished or BuildFailed.
	State BuildState
	// CatchupRows counts target-table writes replayed from the change log
	// (snapshot rows excluded).
	CatchupRows int64
	// LastSync is the final replay watermark (change-log LSN).
	LastSync uint64
	// Retries counts attempts restarted after a temporary error.
	Retries int
	// Code classifies the outcome (CodeOK on success).
	Code ErrCode
	// Err is the final error (nil on success).
	Err error
}

// notify forwards a state change to the build's monitor, if it has one.
func notify(mon BuildMonitor, index string, state BuildState) {
	if mon != nil {
		mon.BuildStateChanged(index, state)
	}
}

// BuildIndexOnline builds an index without blocking foreground reads or
// (for most of the build) writes:
//
//	reader lock:    attach change log + snapshot the heap
//	no lock:        bulk-build trees; foreground writes land in the log
//	no lock:        replay the log in batches to the last_sync watermark
//	exclusive lock: drain the tail, publish catalog entry + trees atomically
//
// Temporary failures are retried up to buildRetries times with seeded
// jitter; permanent failures abort with a clean rollback — the catalog and
// index set are untouched, the change log is detached, and foreground
// traffic continues unharmed. One build runs at a time; concurrent calls
// serialize.
func (m *Manager) BuildIndexOnline(ctx context.Context, spec engine.IndexBuildSpec) (*BuildReport, error) {
	return m.BuildIndexOnlineMonitored(ctx, spec, nil)
}

// BuildIndexOnlineMonitored is BuildIndexOnline with a monitor (e.g. a
// tuning round's span recorder) notified of every state transition. mon may
// be nil.
func (m *Manager) BuildIndexOnlineMonitored(ctx context.Context, spec engine.IndexBuildSpec, mon BuildMonitor) (*BuildReport, error) {
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	if m.metrics != nil {
		m.metrics.builds.Inc()
	}
	rep := &BuildReport{Name: spec.Name, State: BuildPending}
	for attempt := 0; ; attempt++ {
		err := m.buildOnce(ctx, spec, rep, mon)
		rep.Code = Classify(err)
		rep.Err = err
		if err == nil {
			rep.State = BuildPublished
			notify(mon, rep.Name, BuildPublished)
			if m.metrics != nil {
				m.metrics.catchupRows.Add(rep.CatchupRows)
				m.metrics.catchupLag.Set(0)
			}
			return rep, nil
		}
		if !rep.Code.Temporary() || attempt >= buildRetries || ctx.Err() != nil {
			rep.State = BuildFailed
			notify(mon, rep.Name, BuildFailed)
			if m.metrics != nil {
				m.metrics.buildFailures.Inc()
				m.metrics.catchupLag.Set(0)
			}
			return rep, err
		}
		rep.Retries++
		if m.metrics != nil {
			m.metrics.buildRetries.Inc()
		}
		time.Sleep(time.Duration(m.jitterMillis()) * time.Millisecond)
	}
}

// buildOnce runs one attempt of the online-build protocol. On any error the
// change log is detached under the exclusive lock, leaving the database
// exactly as before the attempt.
func (m *Manager) buildOnce(ctx context.Context, spec engine.IndexBuildSpec, rep *BuildReport, mon BuildMonitor) error {
	rep.CatchupRows, rep.LastSync = 0, 0

	// Phase 1 — reader lock: validate, attach the change log, snapshot.
	// The reader lock excludes writers, so the log attaches empty and no
	// write interleaves the heap scan.
	var b *engine.IndexBuild
	err := m.Read(func(r engine.Reader) error {
		var err error
		b, err = r.NewIndexBuild(spec)
		if err != nil {
			return err
		}
		rep.Name = spec.Name
		notify(mon, rep.Name, BuildSnapshot)
		if err := b.StartLogging(); err != nil {
			return err
		}
		return b.Snapshot()
	})
	if err != nil {
		m.abortBuild(b)
		return err
	}

	// Phase 2 — no lock: bulk-build off to the side.
	notify(mon, rep.Name, BuildBulk)
	if err := b.Build(); err != nil {
		m.abortBuild(b)
		return err
	}

	// Phase 3 — no lock: batched change-log replay toward last_sync. The
	// context is consulted before every batch and once more before the
	// publish: a build cancelled during its last batch must not go on to
	// stall traffic behind the exclusive lock.
	notify(mon, rep.Name, BuildCatchup)
	for caughtUp := false; ; {
		if err := ctx.Err(); err != nil {
			m.abortBuild(b)
			return err
		}
		if caughtUp {
			break
		}
		applied, remaining, err := b.Catchup(m.catchupBatch)
		if m.metrics != nil {
			m.metrics.catchupLag.Set(float64(remaining))
		}
		if err != nil {
			m.abortBuild(b)
			return err
		}
		rep.CatchupRows, rep.LastSync = b.CatchupRows(), b.LastSync()
		caughtUp = remaining == 0 && applied == 0
	}

	// Phase 4 — exclusive lock: drain the tail and publish atomically.
	err = m.Exclusive(func(db *engine.DB) error { return b.Publish() })
	if err != nil {
		// Publish detached the log on its way out; nothing was registered.
		return err
	}
	rep.CatchupRows, rep.LastSync = b.CatchupRows(), b.LastSync()
	return nil
}

// abortBuild rolls a failed attempt back under the exclusive lock (the log
// detach must not race writers appending to it). Nil-safe for attempts that
// failed before the build object existed.
func (m *Manager) abortBuild(b *engine.IndexBuild) {
	if b == nil {
		return
	}
	_ = m.Exclusive(func(db *engine.DB) error {
		b.Abort()
		return nil
	})
}
