// Package hypo estimates hypothetical (what-if) indexes, the equivalent of
// the openGauss/PostgreSQL hypopg the paper relies on (§V, C2.1): the size,
// height and page count an index *would* have, from catalog statistics
// alone — no index is ever built for estimation. Candidate generation prices
// its specs with Estimate and EstimateLocal; the estimator then plans
// against a catalog view holding those specs (catalog.WithIndexes) and
// registers nothing. Session, which does register hypothetical indexes in a
// catalog and removes them again, is kept for callers that want to plan by
// hand against the live catalog and because bench/ times it as
// hypo.create_us; the product path does not use it.
package hypo

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// entriesPerPage approximates how many index entries fit a page, matching
// the B+Tree order used by the engine.
const entriesPerPage = 128

// Estimate fills in SizeBytes, Height, NumPages and NumTuples of a normal
// (or, on partitioned tables, GLOBAL) index on the given columns using only
// the table's statistics.
func Estimate(tbl *catalog.Table, columns []string) (catalog.IndexMeta, error) {
	return estimate(tbl, columns, false)
}

// EstimateLocal estimates a LOCAL (per-partition) index on a partitioned
// table: each partition tree holds NumRows/Partitions entries, so the tree
// is shallower and entries skip the partition pointer a global index needs —
// smaller on disk, but non-partition-key lookups must probe every tree.
func EstimateLocal(tbl *catalog.Table, columns []string) (catalog.IndexMeta, error) {
	if !tbl.IsPartitioned() {
		return catalog.IndexMeta{}, fmt.Errorf("hypo: LOCAL index on unpartitioned table %q", tbl.Name)
	}
	return estimate(tbl, columns, true)
}

func estimate(tbl *catalog.Table, columns []string, local bool) (catalog.IndexMeta, error) {
	meta := catalog.IndexMeta{
		Table:        tbl.Name,
		Columns:      make([]string, len(columns)),
		Hypothetical: true,
		Local:        local,
	}
	var keyWidth float64
	for i, c := range columns {
		c = strings.ToLower(c)
		meta.Columns[i] = c
		col := tbl.Column(c)
		if col == nil {
			return meta, fmt.Errorf("hypo: unknown column %s.%s", tbl.Name, c)
		}
		if st := tbl.ColumnStatsFor(c); st != nil && st.AvgWidth > 0 {
			keyWidth += st.AvgWidth
		} else {
			keyWidth += 8
		}
	}
	n := tbl.NumRows
	meta.NumTuples = n
	// entry = key + RID; a global index on a partitioned table additionally
	// stores a partition pointer per entry (paper §III: global "takes much
	// storage space"). Pages ~70% full.
	ridBytes := 8.0
	if tbl.IsPartitioned() && !local {
		ridBytes = 12
	}
	entryBytes := keyWidth + ridBytes
	meta.SizeBytes = int64(float64(n) * entryBytes * 1.3)
	pages := n / (entriesPerPage * 7 / 10)
	if pages < 1 {
		pages = 1
	}
	meta.NumPages = pages
	if local {
		perPart := n / int64(tbl.Partitions)
		meta.Height = estimateHeight(perPart)
	} else {
		meta.Height = estimateHeight(n)
	}
	return meta, nil
}

func estimateHeight(n int64) int {
	if n <= 0 {
		return 1
	}
	h := 1
	capacity := int64(entriesPerPage)
	for capacity < n {
		h++
		capacity *= int64(entriesPerPage / 2)
		if h > 12 {
			break
		}
	}
	return h
}

// Session manages a set of hypothetical indexes registered in a catalog,
// guaranteeing cleanup. Typical use:
//
//	s := hypo.NewSession(cat)
//	defer s.Close()
//	s.Create("h1", tbl, cols)
//	...plan queries...
type Session struct {
	cat     *catalog.Catalog
	created []string
	seq     int
}

// NewSession starts a what-if session against the catalog.
func NewSession(cat *catalog.Catalog) *Session {
	return &Session{cat: cat}
}

// Create registers a hypothetical index on table(columns) and returns its
// metadata. Name is auto-generated when empty.
func (s *Session) Create(name, table string, columns []string) (*catalog.IndexMeta, error) {
	tbl := s.cat.Table(table)
	if tbl == nil {
		return nil, fmt.Errorf("hypo: unknown table %q", table)
	}
	meta, err := Estimate(tbl, columns)
	if err != nil {
		return nil, err
	}
	if name == "" {
		s.seq++
		name = fmt.Sprintf("hypo_%s_%s_%d", tbl.Name, strings.Join(meta.Columns, "_"), s.seq)
	}
	meta.Name = strings.ToLower(name)
	m := meta // copy to heap
	if err := s.cat.AddIndex(&m); err != nil {
		return nil, err
	}
	s.created = append(s.created, m.Name)
	return &m, nil
}

// Close drops every hypothetical index the session created.
func (s *Session) Close() {
	for _, name := range s.created {
		_ = s.cat.DropIndex(name)
	}
	s.created = nil
}
