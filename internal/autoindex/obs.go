package autoindex

import (
	"encoding/json"
	"math"

	"repro/internal/floatcmp"
	"repro/internal/obs"
	"repro/internal/session"
)

// managerMetrics holds the manager's pre-resolved instrument handles.
type managerMetrics struct {
	reg           *obs.Registry
	rounds        *obs.Counter
	created       *obs.Counter
	dropped       *obs.Counter
	candidates    *obs.Gauge
	templates     *obs.Gauge
	predicted     *obs.Gauge
	measured      *obs.Gauge
	relError      *obs.Gauge
	applyFailures *obs.Counter
}

func newManagerMetrics(reg *obs.Registry) *managerMetrics {
	if reg == nil {
		return nil
	}
	return &managerMetrics{
		reg:        reg,
		rounds:     reg.Counter("autoindex_rounds_total", "Tuning rounds started"),
		created:    reg.Counter("autoindex_indexes_created_total", "Indexes created by Apply"),
		dropped:    reg.Counter("autoindex_indexes_dropped_total", "Indexes dropped by Apply"),
		candidates: reg.Gauge("autoindex_candidates", "Candidate pool size of the last round"),
		templates:  reg.Gauge("autoindex_templates", "Templates the last round's workload compressed to"),
		predicted:  reg.Gauge("autoindex_predicted_benefit", "Estimator benefit of the last applied recommendation"),
		measured:   reg.Gauge("autoindex_measured_benefit", "Measured benefit of the last completed recommendation"),
		relError:   reg.Gauge("autoindex_benefit_rel_error", "Relative |predicted-measured|/measured of the last completed recommendation"),
		applyFailures: reg.Counter("autoindex_apply_failures_total",
			"Applies that failed and were rolled back"),
	}
}

// Instrument sets the tracer the manager's rounds report to, overriding the
// process-wide default New picked up; nil turns tracing off. Metrics are the
// database's: see New.
func (m *Manager) Instrument(tracer *obs.Tracer) { m.tracer = tracer }

// Registry returns the manager's metrics registry, the one of the database
// it was created over (nil when off).
func (m *Manager) Registry() *obs.Registry {
	if m.metrics == nil {
		return nil
	}
	return m.metrics.reg
}

// startRound opens a tuning-round span and bumps the round counter. The
// returned span is nil when tracing is off — all callees are nil-safe.
func (m *Manager) startRound(kind string) *obs.Span {
	m.rounds++
	if m.metrics != nil {
		m.metrics.rounds.Inc()
	}
	span := m.tracer.Start("tuning_round")
	span.SetAttr("round", m.rounds)
	span.SetAttr("kind", kind)
	return span
}

// buildSpanMonitor mirrors an online build's state machine onto the apply
// trace: each transition becomes an event on the online_build child span,
// so the tuning-round tree shows snapshot → bulk → catchup → published (or
// failed) with timestamps. Nil-receiver-safe per the BuildMonitor contract.
type buildSpanMonitor struct {
	span *obs.Span
}

func (b *buildSpanMonitor) BuildStateChanged(index string, state session.BuildState) {
	if b == nil {
		return
	}
	b.span.Event("build_state", "index", index, "state", state.String())
}

// AppliedOutcome tracks one applied recommendation's predicted benefit and,
// once the next measured workload cost is reported, the realized benefit —
// the estimator's accuracy feedback loop.
type AppliedOutcome struct {
	// Round is the tuning round the recommendation came from.
	Round int64
	// Created / Dropped count applied index changes.
	Created, Dropped int
	// PredictedBenefit is the estimator's promised workload cost reduction.
	PredictedBenefit float64
	// CostBefore is the measured workload cost before applying (NaN when no
	// measurement had been reported yet).
	CostBefore float64
	// CostAfter is the next measured workload cost after applying (NaN
	// until reported via ObserveMeasuredCost).
	CostAfter float64
	// MeasuredBenefit is CostBefore - CostAfter once both are known.
	MeasuredBenefit float64
	// Complete marks that the after-measurement has arrived.
	Complete bool
	// Failed marks an apply that errored; Created/Dropped then count the
	// changes that were attempted and rolled back, and Error carries the
	// failure. Failed records are born Complete (there is no configuration
	// change to measure).
	Failed bool
	// RolledBack reports the failed apply's changes were reverted.
	RolledBack bool
	// Error is the apply failure message (empty on success).
	Error string
	// Code classifies the apply outcome on the async-index convention
	// (rendered symbolically — OK/temporary/permanent — in reports).
	Code session.ErrCode
	// CreatedNames lists the indexes this apply built (the guardrail reverts
	// exactly these names, and matches them against probe counters).
	CreatedNames []string
	// Lifecycle is the guardrail verdict state (LifecycleNone when no
	// guardrail is attached).
	Lifecycle LifecycleState
}

// MarshalJSON renders the outcome with not-yet-observed measurements (NaN)
// as null: JSON has no NaN, and encoding/json rejects it outright, which
// used to make StateReport.JSON() fail for any applied-but-unmeasured
// recommendation.
func (o AppliedOutcome) MarshalJSON() ([]byte, error) {
	type outcomeJSON struct {
		Round            int64    `json:"round"`
		Created          int      `json:"created"`
		Dropped          int      `json:"dropped"`
		CreatedNames     []string `json:"created_names,omitempty"`
		PredictedBenefit float64  `json:"predicted_benefit"`
		CostBefore       *float64 `json:"cost_before"`
		CostAfter        *float64 `json:"cost_after"`
		MeasuredBenefit  *float64 `json:"measured_benefit"`
		Complete         bool     `json:"complete"`
		Failed           bool     `json:"failed,omitempty"`
		RolledBack       bool     `json:"rolled_back,omitempty"`
		Error            string   `json:"error,omitempty"`
		Code             string   `json:"code"`
		Lifecycle        string   `json:"lifecycle,omitempty"`
	}
	v := outcomeJSON{
		Round:            o.Round,
		Created:          o.Created,
		Dropped:          o.Dropped,
		CreatedNames:     o.CreatedNames,
		PredictedBenefit: o.PredictedBenefit,
		Complete:         o.Complete,
		Failed:           o.Failed,
		RolledBack:       o.RolledBack,
		Error:            o.Error,
		Code:             o.Code.String(),
	}
	if o.Lifecycle != LifecycleNone {
		v.Lifecycle = o.Lifecycle.String()
	}
	if !math.IsNaN(o.CostBefore) {
		v.CostBefore = &o.CostBefore
	}
	if !math.IsNaN(o.CostAfter) {
		v.CostAfter = &o.CostAfter
	}
	if o.Complete && !math.IsNaN(o.MeasuredBenefit) {
		v.MeasuredBenefit = &o.MeasuredBenefit
	}
	return json.Marshal(v)
}

// ObserveMeasuredCost reports one measured workload cost (e.g. a window's
// harness.RunStats.TotalCost). The first report after an Apply completes
// that recommendation's predicted-vs-actual record; every report updates
// the baseline for the next one. Call it once per tuning window.
func (m *Manager) ObserveMeasuredCost(cost float64) {
	if n := len(m.outcomes); n > 0 && !m.outcomes[n-1].Complete {
		o := &m.outcomes[n-1]
		o.CostAfter = cost
		o.Complete = true
		if !math.IsNaN(o.CostBefore) {
			o.MeasuredBenefit = o.CostBefore - cost
			if m.metrics != nil {
				m.metrics.measured.Set(o.MeasuredBenefit)
				// Benefits within relative rounding noise of the costs they
				// were derived from make the relative error meaningless —
				// skip rather than divide by a near-zero.
				if !floatcmp.Eq(o.CostBefore, o.CostAfter) {
					m.metrics.relError.Set(math.Abs(o.PredictedBenefit-o.MeasuredBenefit) /
						math.Abs(o.MeasuredBenefit))
				}
			}
		}
	}
	m.lastMeasuredCost = cost
	if m.watcher != nil {
		m.watcher.CostMeasured(cost)
	}
}

// Outcomes returns the applied-recommendation history (oldest first).
func (m *Manager) Outcomes() []AppliedOutcome {
	return append([]AppliedOutcome{}, m.outcomes...)
}

// PredictionAccuracy aggregates completed outcomes into the estimator's
// mean relative benefit error |predicted-measured| / |measured|. ok is
// false when no outcome has both sides measured. Outcomes whose measured
// benefit is zero or within relative rounding noise of the window costs it
// was derived from are skipped: dividing by such a denominator would make a
// single free-prediction outcome blow the mean up to Inf/NaN.
func (m *Manager) PredictionAccuracy() (meanRelError float64, n int, ok bool) {
	var sum float64
	for _, o := range m.outcomes {
		if !o.Complete || math.IsNaN(o.CostBefore) || floatcmp.Eq(o.CostBefore, o.CostAfter) {
			continue
		}
		sum += math.Abs(o.PredictedBenefit-o.MeasuredBenefit) / math.Abs(o.MeasuredBenefit)
		n++
	}
	if n == 0 {
		return 0, 0, false
	}
	return sum / float64(n), n, true
}

// recordApplied feeds one apply's outcome into the ledger and metrics. A
// successful apply with real changes opens a predicted-vs-actual record
// (completed by the next ObserveMeasuredCost); a failed apply is recorded
// immediately as a complete, Failed entry — failures are part of the tuning
// history, not silently skipped.
func (m *Manager) recordApplied(rec *Recommendation, rep *ApplyReport) {
	if rep.Err != nil {
		if m.metrics != nil {
			m.metrics.applyFailures.Inc()
		}
		m.appendOutcome(AppliedOutcome{
			Round:            m.rounds,
			Created:          len(rep.Created),
			Dropped:          len(rep.Dropped),
			PredictedBenefit: rec.EstimatedBenefit,
			CostBefore:       m.lastMeasuredCost,
			CostAfter:        math.NaN(),
			Complete:         true,
			Failed:           true,
			RolledBack:       rep.RolledBack,
			Error:            rep.Err.Error(),
			Code:             rep.Code,
		}, rep)
		return
	}
	created, dropped := len(rep.Created), len(rep.Dropped)
	if m.metrics != nil {
		m.metrics.created.Add(int64(created))
		m.metrics.dropped.Add(int64(dropped))
		m.metrics.predicted.Set(rec.EstimatedBenefit)
	}
	if created == 0 && dropped == 0 {
		return
	}
	m.appendOutcome(AppliedOutcome{
		Round:            m.rounds,
		Created:          created,
		Dropped:          dropped,
		CreatedNames:     append([]string(nil), rep.Created...),
		PredictedBenefit: rec.EstimatedBenefit,
		CostBefore:       m.lastMeasuredCost,
		CostAfter:        math.NaN(),
		Code:             rep.Code,
	}, rep)
}

// appendOutcome appends one ledger entry and notifies the watcher (the
// guardrail's staging hook) with the entry's index and a copy.
func (m *Manager) appendOutcome(o AppliedOutcome, rep *ApplyReport) {
	m.outcomes = append(m.outcomes, o)
	if m.watcher != nil {
		m.watcher.ApplyRecorded(len(m.outcomes)-1, o, rep)
	}
}
