// Package analysis is a self-contained reimplementation of the subset of
// golang.org/x/tools/go/analysis that the internal/lint suite needs. The
// repository vendors no third-party modules, so instead of the upstream
// framework this package provides the same three ideas — an Analyzer with a
// Run function, a Pass giving it one type-checked package, and Diagnostics
// reported at token positions — on top of the standard library only.
// Packages are discovered and type-checked via `go list -export` plus the
// gc export-data importer (see load.go), which works offline from the build
// cache.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the check over one package. Findings go through
	// Pass.Report/Reportf; the returned value is ignored (kept for parity
	// with the upstream signature).
	Run func(*Pass) (any, error)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Program is the whole-load call graph shared by every pass of one Run;
	// cross-function analyzers compute program-wide facts once (memoized in
	// Program.Cache) and report only findings inside this pass's package.
	Program *Program

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

// String renders a diagnostic as file:line:col: message (analyzer).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  msg,
		Analyzer: p.Analyzer.Name,
	})
}

// Reportf records a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Run applies every analyzer to every package and returns the diagnostics
// sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog := BuildProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Program:   prog,
				diags:     &diags,
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// PathBase returns the last element of an import path ("repro/internal/mcts"
// → "mcts"). Analyzer target sets match on it so analysistest fixture
// packages (".../testdata/src/mapiterorder/mcts") trigger the same checks as
// the real tree.
func PathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
