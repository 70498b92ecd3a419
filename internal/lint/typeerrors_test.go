package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/analysistest"
)

// TestDeletedRulesAreTypeErrors pins the analyzer rules that types replaced:
// each package under testdata/typeerrors holds one violation a deleted rule
// used to flag, compiles against an API without that type, and must now fail
// to load with the compiler's own diagnosis.
func TestDeletedRulesAreTypeErrors(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	for _, tc := range []struct{ pkg, want string }{
		// sessionlock rule 2: no mutation under the reader lock.
		{"readmutate", "engine.Reader) does not satisfy executor (missing method Exec)"},
		// sessionlock rule 3: no session.Manager.DB() around the lock seams.
		{"sessiondb", "type *session.Manager has no field or method DB"},
		// errclass rule 3: no integer session.ErrCode.
		{"errcodeliteral", "cannot convert 4096 (untyped int constant) to type session.ErrCode"},
	} {
		t.Run(tc.pkg, func(t *testing.T) {
			_, err := analysis.Load(root, "./internal/lint/testdata/typeerrors/"+tc.pkg)
			if err == nil {
				t.Fatal("package loaded cleanly; the violation compiles again")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("load error does not name the violation %q:\n%v", tc.want, err)
			}
		})
	}
}
