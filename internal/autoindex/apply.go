package autoindex

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/session"
)

// dropRetries is how many extra attempts a single drop gets when it fails
// with a transient (retryable) injected fault. Builds retry inside the
// session layer, never here.
const dropRetries = 2

// ApplyReport is the outcome of one transactional apply. Created and Dropped
// list only changes that committed and survived: after a successful apply
// they are the full delta; after a failed one (Err set, RolledBack true)
// both are the changes that were undone, and the live configuration equals
// the pre-apply one exactly.
type ApplyReport struct {
	// Created names the indexes built.
	Created []string
	// Dropped holds the full pre-drop spec of every index dropped — enough
	// to rebuild each one (columns, uniqueness, locality) on rollback.
	Dropped []*catalog.IndexMeta
	// RolledBack reports that a failure occurred and the completed changes
	// above were reverted in reverse order.
	RolledBack bool
	// RollbackErr is the first error hit while rolling back (nil when the
	// rollback fully restored the pre-apply configuration). When non-nil
	// the system is between configurations and needs operator attention.
	RollbackErr error
	// Err is the failure that triggered the rollback (nil on success).
	Err error
	// CatchupRows counts change-log writes the index builds (creates and
	// rollback rebuilds) replayed after their snapshots.
	CatchupRows int64
	// Code classifies Err on the async-index convention: OK, temporary
	// (already retried with seeded backoff before surfacing) or permanent.
	Code session.ErrCode
}

// String summarizes the report on one line for logs: change counts, the
// builds' catch-up rows, and — on failure — the symbolic error class plus
// rollback status.
func (r *ApplyReport) String() string {
	var b strings.Builder
	if r.Err == nil {
		fmt.Fprintf(&b, "apply ok: created=%d dropped=%d", len(r.Created), len(r.Dropped))
	} else {
		fmt.Fprintf(&b, "apply failed (%s): %v", r.Code, r.Err)
		if r.RolledBack {
			if r.RollbackErr != nil {
				fmt.Fprintf(&b, "; rollback incomplete: %v", r.RollbackErr)
			} else {
				b.WriteString("; rolled back")
			}
		}
		fmt.Fprintf(&b, " [created=%d dropped=%d]", len(r.Created), len(r.Dropped))
	}
	if len(r.Created) > 0 {
		fmt.Fprintf(&b, " create=[%s]", strings.Join(r.Created, " "))
	}
	if len(r.Dropped) > 0 {
		names := make([]string, len(r.Dropped))
		for i, meta := range r.Dropped {
			names[i] = meta.Name
		}
		fmt.Fprintf(&b, " drop=[%s]", strings.Join(names, " "))
	}
	fmt.Fprintf(&b, " catchup_rows=%d", r.CatchupRows)
	return b.String()
}

// Apply executes a recommendation transactionally: drops first (freeing
// budget), then creates. On any failure every completed change is rolled
// back in reverse order — new creates are dropped, dropped indexes are
// rebuilt from their recorded specs — so the live index set always matches
// exactly the pre-apply or the post-apply configuration. Every index is built
// online through the session layer (snapshot, bulk-build, change-log
// catch-up, atomic publish), rollback rebuilds included. Transient faults are
// retried before counting as failure. Each apply (successful
// or failed) is recorded in the benefit ledger; successful ones with real
// changes open a predicted-vs-actual record completed by the next
// ObserveMeasuredCost.
func (m *Manager) Apply(ctx context.Context, rec *Recommendation) (*ApplyReport, error) {
	return m.applySpanned(ctx, rec, nil)
}

// ApplyDrops drops the named indexes with the same all-or-nothing contract
// as Apply: a mid-loop failure rebuilds the already-dropped indexes from
// their recorded specs instead of leaving them silently gone.
func (m *Manager) ApplyDrops(ctx context.Context, names []string) (*ApplyReport, error) {
	return m.applySpanned(ctx, &Recommendation{Drop: names}, nil)
}

func (m *Manager) applySpanned(ctx context.Context, rec *Recommendation, parent *obs.Span) (rep *ApplyReport, err error) {
	span := m.childOrRoot(parent, "apply")
	rep = &ApplyReport{}
	defer func() {
		rep.Err = err
		rep.Code = session.Classify(err)
		span.SetAttr("created", len(rep.Created))
		span.SetAttr("dropped", len(rep.Dropped))
		span.SetAttr("catchup_rows", rep.CatchupRows)
		if rep.RolledBack {
			span.SetAttr("rolled_back", true)
			if rep.RollbackErr != nil {
				span.SetAttr("rollback_error", rep.RollbackErr.Error())
			}
		}
		span.End()
		m.recordApplied(rec, rep)
	}()
	for _, name := range rec.Drop {
		if cerr := ctx.Err(); cerr != nil {
			m.rollback(ctx, span, rep)
			return rep, cerr
		}
		snapshot := m.lookupIndex(name)
		if derr := m.dropIndex(name); derr != nil {
			m.rollback(ctx, span, rep)
			return rep, fmt.Errorf("autoindex: drop %s: %w", name, derr)
		}
		rep.Dropped = append(rep.Dropped, snapshot)
	}
	for _, spec := range rec.Create {
		if cerr := ctx.Err(); cerr != nil {
			m.rollback(ctx, span, rep)
			return rep, cerr
		}
		name := buildName(spec)
		if m.lookupIndex(name) != nil {
			continue // already exists (e.g. a concurrent manual CREATE INDEX)
		}
		if cerr := m.buildIndex(ctx, span, name, spec, rep); cerr != nil {
			m.rollback(ctx, span, rep)
			return rep, fmt.Errorf("autoindex: create %s: %w", name, cerr)
		}
		rep.Created = append(rep.Created, name)
	}
	return rep, nil
}

// buildIndex builds one index online — snapshot, bulk-build, change-log
// catchup, atomic publish — traced as an online_build child span. Temporary
// errors are retried inside the session layer with seeded backoff.
func (m *Manager) buildIndex(ctx context.Context, span *obs.Span, name string, spec *catalog.IndexMeta, rep *ApplyReport) error {
	bspan := span.Child("online_build")
	bspan.SetAttr("index", name)
	buildRep, err := m.sessions.BuildIndexOnlineMonitored(ctx, engine.IndexBuildSpec{
		Name:    name,
		Table:   spec.Table,
		Columns: spec.Columns,
		Unique:  spec.Unique,
		Local:   spec.Local,
	}, &buildSpanMonitor{span: bspan})
	if buildRep != nil {
		rep.CatchupRows += buildRep.CatchupRows
		bspan.SetAttr("state", buildRep.State.String())
		bspan.SetAttr("catchup_rows", buildRep.CatchupRows)
		bspan.SetAttr("retries", buildRep.Retries)
		bspan.SetAttr("code", buildRep.Code.String())
	}
	bspan.End()
	return err
}

// dropIndex removes an index under the exclusive lock (a drop swaps catalog
// and tree state under running readers), retrying transient faults.
func (m *Manager) dropIndex(name string) error {
	for attempt := 0; ; attempt++ {
		err := m.sessions.Exclusive(func(db *engine.DB) error { return db.DropIndex(name) })
		if err == nil || attempt >= dropRetries || !fault.IsTransient(err) {
			return err
		}
	}
}

// lookupIndex fetches a deep copy of an index's metadata under the reader
// lock (nil when absent). Copying means the caller never holds a pointer
// into the live catalog after the lock is released, so a concurrent drop or
// publish cannot invalidate it.
func (m *Manager) lookupIndex(name string) *catalog.IndexMeta {
	var meta *catalog.IndexMeta
	_ = m.sessions.Read(func(r engine.Reader) error {
		if live := r.Catalog().Index(name); live != nil {
			meta = cloneIndexMeta(live)
		}
		return nil
	})
	return meta
}

// rollback reverts the report's completed changes in reverse order of
// completion: creates are dropped newest-first, then drops are rebuilt
// newest-first from their snapshots, online like any other build. It runs to
// the end whatever happened to the apply's context: the first hard failure
// is recorded in rep.RollbackErr and the remaining steps still run
// (restoring as much as possible).
func (m *Manager) rollback(ctx context.Context, span *obs.Span, rep *ApplyReport) {
	ctx = context.WithoutCancel(ctx)
	rep.RolledBack = true
	for i := len(rep.Created) - 1; i >= 0; i-- {
		name := rep.Created[i]
		if err := m.dropIndex(name); err != nil && rep.RollbackErr == nil {
			rep.RollbackErr = fmt.Errorf("autoindex: rollback drop %s: %w", name, err)
		}
	}
	for i := len(rep.Dropped) - 1; i >= 0; i-- {
		meta := rep.Dropped[i]
		if meta == nil || m.lookupIndex(meta.Name) != nil {
			continue
		}
		if err := m.buildIndex(ctx, span, meta.Name, meta, rep); err != nil && rep.RollbackErr == nil {
			rep.RollbackErr = fmt.Errorf("autoindex: rollback rebuild %s: %w", meta.Name, err)
		}
	}
}

// cloneIndexMeta deep-copies the fields needed to rebuild an index. Runtime
// statistics are recomputed by the rebuild itself.
func cloneIndexMeta(meta *catalog.IndexMeta) *catalog.IndexMeta {
	clone := *meta
	clone.Columns = append([]string(nil), meta.Columns...)
	return &clone
}
