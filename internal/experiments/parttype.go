package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/autoindex"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/sqltypes"
)

// PartTypeResult reports the index-type-selection experiment (paper §III:
// "we can support index type selection for the data partitioning
// scenarios"). Two workloads hit the same hash-partitioned table: one binds
// the partition key on every lookup (a LOCAL index is smaller and its
// partition-pruned probes are shallower), the other never binds it (a
// GLOBAL index avoids probing every partition). AutoIndex should pick the
// right type for each.
type PartTypeResult struct {
	// PartitionKeyWorkload: the type selected when lookups bind the key.
	PartitionKeyChoice string
	// NonKeyWorkload: the type selected when lookups miss the key.
	NonKeyChoice string
	// Measured costs of each workload under each index type, for the record.
	KeyWorkloadLocal, KeyWorkloadGlobal       float64
	NonKeyWorkloadLocal, NonKeyWorkloadGlobal float64
}

// IndexTypeSelection runs the experiment.
func IndexTypeSelection(seed int64) (*PartTypeResult, error) {
	// 64k rows: the single global tree is one level deeper than the 16
	// per-partition trees, so partition-pruned local probes save a descent
	// while unpruned local probes pay 16 of them.
	const rows = 64000
	build := func() (*engine.DB, error) {
		db := engine.New()
		if _, err := db.Exec(
			"CREATE TABLE acct (id BIGINT, owner BIGINT, region BIGINT, bal DOUBLE, PRIMARY KEY (id)) PARTITION BY HASH (owner) PARTITIONS 16"); err != nil {
			return nil, err
		}
		tuples := make([]sqltypes.Tuple, rows)
		for i := 0; i < rows; i++ {
			tuples[i] = sqltypes.Tuple{
				sqltypes.NewInt(int64(i)),
				sqltypes.NewInt(int64(i % 16000)),
				sqltypes.NewInt(int64(i % 9000)),
				sqltypes.NewFloat(float64(i % 1000)),
			}
		}
		if err := db.BulkLoad("acct", tuples); err != nil {
			return nil, err
		}
		if err := db.AnalyzeAll(); err != nil {
			return nil, err
		}
		return db, nil
	}

	keyWorkload := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("SELECT bal FROM acct WHERE owner = %d", (i*37)%16000)
		}
		return out
	}
	nonKeyWorkload := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("SELECT bal FROM acct WHERE region = %d", (i*53)%9000)
		}
		return out
	}

	res := &PartTypeResult{}

	// Measure ground truth: each workload under each physical index type.
	measure := func(workload []string, ddl string) (float64, error) {
		db, err := build()
		if err != nil {
			return 0, err
		}
		if _, err := db.Exec(ddl); err != nil {
			return 0, err
		}
		run := harness.Run(db, workload)
		if run.Errors > 0 {
			return 0, fmt.Errorf("experiments: %d errors under %q", run.Errors, ddl)
		}
		return run.TotalCost, nil
	}
	var err error
	if res.KeyWorkloadLocal, err = measure(keyWorkload(200), "CREATE LOCAL INDEX x ON acct (owner)"); err != nil {
		return nil, err
	}
	if res.KeyWorkloadGlobal, err = measure(keyWorkload(200), "CREATE INDEX x ON acct (owner)"); err != nil {
		return nil, err
	}
	if res.NonKeyWorkloadLocal, err = measure(nonKeyWorkload(200), "CREATE LOCAL INDEX x ON acct (region)"); err != nil {
		return nil, err
	}
	if res.NonKeyWorkloadGlobal, err = measure(nonKeyWorkload(200), "CREATE INDEX x ON acct (region)"); err != nil {
		return nil, err
	}

	// Let AutoIndex choose for each workload.
	choose := func(workload []string) (string, error) {
		db, err := build()
		if err != nil {
			return "", err
		}
		m := autoindex.New(db, autoindex.Options{MCTS: defaultMCTS(seed), RoundTimeout: RoundTimeout})
		m.Attach()
		harness.Run(db, workload)
		rec, err := m.Recommend(context.Background())
		if err != nil {
			return "", err
		}
		for _, spec := range rec.Create {
			if spec.Table != "acct" {
				continue
			}
			if spec.Local {
				return "local", nil
			}
			if !strings.HasPrefix(spec.Columns[0], "id") {
				return "global", nil
			}
		}
		return "none", nil
	}
	if res.PartitionKeyChoice, err = choose(keyWorkload(200)); err != nil {
		return nil, err
	}
	if res.NonKeyChoice, err = choose(nonKeyWorkload(200)); err != nil {
		return nil, err
	}
	return res, nil
}
