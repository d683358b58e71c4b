// Package lint is saath's repo-specific static-analysis suite. It
// enforces, at the source level, the three standing invariants that
// the golden and AllocsPerRun tests otherwise catch only after the
// fact:
//
//   - determinism: study output must be byte-identical at any
//     -parallel/-shard partition, so determinism-critical packages
//     must not read the wall clock, draw from the global math/rand
//     source, or let map iteration order leak into results (detcheck);
//   - hot path: the engine event-dispatch path and annotated
//     scheduler hot functions must stay allocation-free at steady
//     state and keep the dense-Idx-slice discipline instead of
//     map[FlowID]-keyed state (hotpath);
//   - out-of-band observability: obs plumbing (sim.Config.Counters,
//     obs.* types) must not leak into study-output-affecting packages
//     (obscheck).
//
// The suite follows the go/analysis model (Analyzer / Pass / Report)
// but is built purely on the standard library: golang.org/x/tools is
// not vendored here, so the framework below is a minimal structural
// clone and the driver in cmd/saath-vet loads packages itself via
// `go list -export` plus go/types instead of x/tools/go/packages.
// Should x/tools become available, the analyzers port mechanically —
// only the Pass plumbing changes.
//
// Escape hatches are explicit source annotations (see annotations.go):
//
//	//saath:wallclock         this wall-clock read is out-of-band by contract
//	//saath:order-independent this map iteration cannot affect results
//	//saath:hotpath           marks a function as a hot-path root
//	//saath:alloc-ok          this allocation/map in a hot function is intentional
//	//saath:obs-ok            this obs reference is sanctioned out-of-band plumbing
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
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Analyzers returns the full saath-vet suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetCheck, HotPath, ObsCheck}
}

// ByName returns the named analyzers, or an error naming the unknown
// one.
func ByName(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			known := make([]string, len(all))
			for i, a := range all {
				known[i] = a.Name
			}
			return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", n, strings.Join(known, ", "))
		}
	}
	return out, nil
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

// Run loads the packages matching patterns (relative to dir) and
// applies every analyzer, returning findings sorted by position.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			fs, err := RunPackage(a, pkg)
			if err != nil {
				return nil, err
			}
			out = append(out, fs...)
		}
	}
	SortFindings(out)
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
