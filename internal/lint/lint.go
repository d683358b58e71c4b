// Package lint is saath's repo-specific static-analysis suite. It
// holds only the rules whose defect no test can see: each analyzer's
// doc comment names the mutation that passes every tier-1 test and that
// the rule flags. Everything else the repo's invariants forbid — an
// allocation on the hot path, a wall-clock read or a global math/rand
// draw reaching study bytes, observability feeding study output — fails
// an allocation guard or a byte-identity golden, so it has no rule here.
//
//   - determinism: a range over a map whose order can reach results in
//     a determinism-critical package (detcheck);
//   - hot path: a map index, map range or map keyed by
//     coflow.FlowID/CoFlowID in a //saath:hotpath function or its
//     intra-package callees (hotpath).
//
// The suite follows the go/analysis model (Analyzer / Pass / Report)
// but is built purely on the standard library: golang.org/x/tools is
// not vendored here, so the framework below is a minimal structural
// clone, and cmd/saath-vet speaks cmd/go's vettool protocol itself.
// Should x/tools become available, the analyzers port mechanically —
// only the Pass plumbing changes.
//
// Escape hatches are explicit source annotations (see annotations.go):
//
//	//saath:order-independent this map iteration cannot affect results
//	//saath:hotpath           marks a function as a hot-path root
//	//saath:map-ok            this map access in a hot function is intentional
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. It mirrors
// x/tools/go/analysis.Analyzer structurally so the checkers port
// mechanically if the real framework becomes available.
type Analyzer struct {
	Name string
	Doc  string

	// AppliesTo reports whether the analyzer runs on the package with
	// the given import path. A nil AppliesTo means every package.
	AppliesTo func(importPath string) bool

	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Notes     *Annotations

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding inside a package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic, ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Notes *Annotations
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
}

// Analyzers returns the full saath-vet suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetCheck, HotPath}
}

// RunPackage applies one analyzer to one loaded package and returns
// its findings. The AppliesTo filter is respected: a package outside
// the analyzer's scope yields no findings.
func RunPackage(a *Analyzer, pkg *Package) ([]Finding, error) {
	if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
		return nil, nil
	}
	var out []Finding
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Notes:     pkg.Notes,
		report: func(d Diagnostic) {
			out = append(out, Finding{
				Analyzer: a.Name,
				Pos:      pkg.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		},
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
	}
	return out, nil
}

// SortFindings orders findings by file, line, column, then analyzer,
// so output is stable across runs.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
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
}

// pathIn reports whether importPath is pkg or a subpackage of any of
// the given prefixes.
func pathIn(importPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}
