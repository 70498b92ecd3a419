// Package diagnosis implements AutoIndex's index diagnosis module (paper
// §III): during workload execution it classifies indexes into (i) beneficial
// indexes not yet created, (ii) rarely-used indexes, and (iii) indexes with
// negative net effect, and issues an index tuning request when the combined
// ratio of problem indexes exceeds a threshold.
package diagnosis

import (
	"context"
	"sort"

	"repro/internal/candgen"
	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/workload"
)

// Diagnosis thresholds.
const (
	// rareUsageFraction: a real index probed by fewer than this fraction of
	// the executed statements is rarely used.
	rareUsageFraction = 0.001
	// tuningThreshold: tuning triggers when problem indexes / (real indexes
	// + uncreated beneficial) exceeds this ratio.
	tuningThreshold = 0.2
	// maxCandidatesChecked bounds estimator calls per diagnosis.
	maxCandidatesChecked = 8
)

// Config is empty: the thresholds are constants no caller has needed to
// change. It stays, as Diagnose's last parameter, only because the benchmark
// under bench/ calls Diagnose with diagnosis.Config{}.
type Config struct{}

// Report is the diagnosis outcome.
type Report struct {
	// BeneficialUncreated lists candidate keys whose estimated benefit is
	// positive (class i).
	BeneficialUncreated []string
	// RarelyUsed lists real index names probed below the usage floor (ii).
	RarelyUsed []string
	// Negative lists real index names whose removal lowers estimated
	// workload cost (iii).
	Negative []string
	// ProblemRatio is problems / considered indexes.
	ProblemRatio float64
	// NeedsTuning is the tuning-request decision.
	NeedsTuning bool
	// Statements is the window's executed-statement count.
	Statements int64
}

// Diagnose classifies indexes for the current window. usage maps index name
// to probe count; statements is the window's statement count; w is the
// compressed workload; est prices configurations; gen proposes candidates.
// The context bounds the estimator work; a cancelled diagnosis returns
// ctx.Err().
func Diagnose(ctx context.Context, cat *catalog.Catalog, usage map[string]int64, statements int64,
	w *workload.Workload, est *costmodel.Estimator, gen *candgen.Generator, _ Config) (*Report, error) {

	rep := &Report{Statements: statements}

	real := nonPKIndexes(cat)
	current := append([]*catalog.IndexMeta{}, real...)

	// (ii) rarely-used: probe count below floor.
	floor := rareUsageFraction * float64(statements)
	for _, m := range real {
		if float64(usage[m.Name]) < floor {
			rep.RarelyUsed = append(rep.RarelyUsed, m.Name)
		}
	}

	// (iii) negative: removing the index lowers estimated cost.
	if len(w.Queries) > 0 {
		base, err := est.WorkloadCostContext(ctx, w, current)
		if err != nil {
			return nil, err
		}
		for i, m := range real {
			without := make([]*catalog.IndexMeta, 0, len(current)-1)
			without = append(without, current[:i]...)
			without = append(without, current[i+1:]...)
			c, err := est.WorkloadCostContext(ctx, w, without)
			if err != nil {
				return nil, err
			}
			if c < base {
				rep.Negative = append(rep.Negative, m.Name)
			}
		}

		// (i) beneficial uncreated: top candidates with positive benefit.
		cands := gen.Generate(ctx, w)
		if len(cands) > maxCandidatesChecked {
			cands = cands[:maxCandidatesChecked]
		}
		for _, c := range cands {
			b, err := est.BenefitContext(ctx, w, current, c.Meta)
			if err != nil {
				return nil, err
			}
			if b > 0 {
				rep.BeneficialUncreated = append(rep.BeneficialUncreated, c.Key())
			}
		}
	}

	sort.Strings(rep.RarelyUsed)
	sort.Strings(rep.Negative)
	sort.Strings(rep.BeneficialUncreated)

	problems := len(rep.BeneficialUncreated) + len(uniqueUnion(rep.RarelyUsed, rep.Negative))
	considered := len(real) + len(rep.BeneficialUncreated)
	if considered > 0 {
		rep.ProblemRatio = float64(problems) / float64(considered)
	}
	rep.NeedsTuning = rep.ProblemRatio > tuningThreshold
	return rep, nil
}

func nonPKIndexes(cat *catalog.Catalog) []*catalog.IndexMeta {
	var out []*catalog.IndexMeta
	for _, m := range cat.Indexes(false) {
		if m.IsPrimary() {
			continue
		}
		out = append(out, m)
	}
	return out
}

func uniqueUnion(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range append(append([]string{}, a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
