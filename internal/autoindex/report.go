package autoindex

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
)

// IndexState is one index's entry in the state report.
type IndexState struct {
	Name      string   `json:"name"`
	Table     string   `json:"table"`
	Columns   []string `json:"columns"`
	Kind      string   `json:"kind"` // "global" or "local"
	SizeBytes int64    `json:"size_bytes"`
	Height    int      `json:"height"`
	NumTuples int64    `json:"num_tuples"`
	Probes    int64    `json:"probes"`
}

// StateReport is a summary of the managed database's index health: what
// exists, how big, how often probed, and what the template store currently
// believes about the workload. String renders it for humans, JSON for
// machines.
type StateReport struct {
	Tables           int   `json:"tables"`
	SecondaryIndexes int   `json:"secondary_indexes"`
	IndexBytes       int64 `json:"index_bytes"`
	Templates        int   `json:"templates"`
	TemplateMatches  int64 `json:"template_matches"`
	TemplateMisses   int64 `json:"template_misses"`
	Statements       int64 `json:"statements"`
	// Indexes is the per-index breakdown, largest first.
	Indexes []IndexState `json:"indexes"`
	// Outcomes is the predicted-vs-measured benefit history of applied
	// recommendations (empty until recommendations are applied).
	Outcomes []AppliedOutcome `json:"outcomes,omitempty"`
	// Lines is the formatted per-index breakdown (String output only).
	Lines []string `json:"-"`
}

// String renders the report.
func (r *StateReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tables=%d secondary_indexes=%d index_bytes=%d\n",
		r.Tables, r.SecondaryIndexes, r.IndexBytes)
	fmt.Fprintf(&b, "templates=%d (matches=%d misses=%d) statements=%d\n",
		r.Templates, r.TemplateMatches, r.TemplateMisses, r.Statements)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, o := range r.Outcomes {
		fmt.Fprintf(&b, "  round %d: +%d/-%d predicted=%.1f", o.Round, o.Created, o.Dropped,
			o.PredictedBenefit)
		if o.Complete {
			fmt.Fprintf(&b, " measured=%.1f", o.MeasuredBenefit)
		}
		if o.Failed {
			fmt.Fprintf(&b, " failed code=%s", o.Code)
		}
		if o.Lifecycle != LifecycleNone {
			fmt.Fprintf(&b, " lifecycle=%s", o.Lifecycle)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the machine-readable report (indented, trailing newline).
func (r *StateReport) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Report summarizes the current state. The catalog walk runs under the
// reader lock so the index list, usage counters, and statement count come
// from one consistent snapshot even while sessions execute concurrently.
func (m *Manager) Report() *StateReport {
	rep := &StateReport{Templates: m.store.Len()}
	rep.TemplateMatches, rep.TemplateMisses = m.store.MatchStats()
	_ = m.sessions.Read(func(db *engine.DB) error {
		rep.Tables = len(db.Catalog().Tables())
		rep.Statements = db.StatementCount()
		usage := db.IndexUsage()

		for _, idx := range db.Catalog().Indexes(false) {
			if idx.IsPrimary() {
				continue
			}
			rep.SecondaryIndexes++
			rep.IndexBytes += idx.SizeBytes
			kind := "global"
			if idx.Local {
				kind = "local"
			}
			rep.Indexes = append(rep.Indexes, IndexState{
				Name:      idx.Name,
				Table:     idx.Table,
				Columns:   append([]string{}, idx.Columns...),
				Kind:      kind,
				SizeBytes: idx.SizeBytes,
				Height:    idx.Height,
				NumTuples: idx.NumTuples,
				Probes:    usage[idx.Name],
			})
		}
		return nil
	})
	sort.Slice(rep.Indexes, func(i, j int) bool {
		if rep.Indexes[i].SizeBytes != rep.Indexes[j].SizeBytes {
			return rep.Indexes[i].SizeBytes > rep.Indexes[j].SizeBytes
		}
		return rep.Indexes[i].Name < rep.Indexes[j].Name
	})
	for _, ix := range rep.Indexes {
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"  %-32s %s(%s) %-6s %9dB h=%d n=%d probes=%d",
			ix.Name, ix.Table, strings.Join(ix.Columns, ","), ix.Kind,
			ix.SizeBytes, ix.Height, ix.NumTuples, ix.Probes))
	}
	rep.Outcomes = m.Outcomes()
	return rep
}
