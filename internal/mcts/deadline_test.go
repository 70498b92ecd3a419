package mcts

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/catalog"
)

// slowEvaluator sleeps per evaluation so a context deadline lands mid-search.
func slowEvaluator(delay time.Duration) Evaluator {
	return EvaluatorFunc(func(ctx context.Context, active []*catalog.IndexMeta) (float64, error) {
		// A select picks at random among ready cases, and with a zero delay
		// the timer may already have fired: a cancelled context must win.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		return 1000 - float64(len(active))*10, nil
	})
}

func deadlineSpecs(n int) []*catalog.IndexMeta {
	specs := make([]*catalog.IndexMeta, n)
	for i := range specs {
		specs[i] = &catalog.IndexMeta{
			Name: fmt.Sprintf("c%d", i), Table: "t",
			Columns: []string{fmt.Sprintf("c%d", i)}, SizeBytes: 100, Hypothetical: true,
		}
	}
	return specs
}

// TestSearchDeadlineReturnsBestSoFarPromptly is the deadline-overrun bound:
// the search must come back Degraded with a usable best-so-far result, and
// must not run longer than the deadline plus roughly one evaluation (one
// MCTS iteration is a selection plus its rollouts; each blocks on the
// evaluator at most once before the next ctx check).
func TestSearchDeadlineReturnsBestSoFarPromptly(t *testing.T) {
	const evalDelay = 10 * time.Millisecond
	const deadline = 60 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	start := time.Now()
	res, err := Search(ctx, slowEvaluator(evalDelay), nil, deadlineSpecs(8),
		Config{Iterations: 10000, Rollouts: 1, Seed: 1})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("mid-search deadline must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Error("result should be flagged Degraded")
	}
	if res.Iterations >= 10000 {
		t.Error("search should have stopped early")
	}
	if res.BestCost <= 0 {
		t.Errorf("best-so-far must carry a real evaluation: %v", res.BestCost)
	}
	// Generous scheduling slack on top of deadline + one in-flight eval.
	if limit := deadline + 2*evalDelay + 200*time.Millisecond; elapsed > limit {
		t.Errorf("search overran the deadline: elapsed=%v limit=%v", elapsed, limit)
	}
}

// TestSearchCancelledBeforeRootEvalErrors: with no evaluation done at all
// there is no best-so-far to return, so the root failure propagates.
func TestSearchCancelledBeforeRootEvalErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Search(ctx, slowEvaluator(0), nil, deadlineSpecs(3),
		Config{Iterations: 10, Seed: 1})
	if err == nil {
		t.Fatal("a pre-cancelled search has no result to degrade to")
	}
}

// TestSearchWithoutDeadlineNeverDegrades guards the determinism contract: an
// un-cancellable context adds no ctx-related control flow to the search.
func TestSearchWithoutDeadlineNeverDegrades(t *testing.T) {
	res, err := Search(context.Background(), slowEvaluator(0), nil, deadlineSpecs(5),
		Config{Iterations: 40, Rollouts: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("no deadline, no degradation")
	}
	if res.Iterations == 0 || res.Evaluations == 0 {
		t.Error("search should have done real work")
	}
}
