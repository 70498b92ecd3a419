// Package guardrail is an errclass fixture: RevertOutcome roots the revert
// path, which shares the build path's Classify/IsTransient retry contract —
// a flattened error makes an injected transient revert fault read as
// permanent, so the seeded-backoff retry never fires.
package guardrail

import (
	"errors"
	"fmt"
)

// RevertOutcome roots the checked path.
func RevertOutcome(idx int) error {
	if err := revertOnce(idx); err != nil {
		// Allowed: %w keeps the chain Classify-able for the retry loop.
		return fmt.Errorf("guardrail: revert outcome %d: %w", idx, err)
	}
	return nil
}

func revertOnce(idx int) error {
	if err := applyDrops(idx); err != nil {
		return fmt.Errorf("drop failed: %v", err) // want "without %w"
	}
	return nil
}

func applyDrops(idx int) error {
	if idx < 0 {
		// Allowed: a fresh error with nothing flattened inside it.
		return errors.New("negative outcome index")
	}
	if err := dropIndex(idx); err != nil {
		return errors.New("rollback: " + err.Error()) // want "flattens a build-path error"
	}
	return nil
}

func dropIndex(int) error { return nil }

// offPath is unreachable from RevertOutcome: the flattening below is real
// but outside the analyzer's scope, so it must stay unflagged.
func offPath() error {
	err := errors.New("x")
	return fmt.Errorf("wrapped: %v", err)
}
