package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis/analysistest"
)

func TestSessionLock(t *testing.T) {
	analysistest.Run(t, lint.SessionLock,
		"internal/lint/testdata/src/sessionlock/clientpkg",
	)
}
