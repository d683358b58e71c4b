package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation names recognized by the suite. An annotation is a
// comment of the form //saath:<name> — no space after //, like other
// Go tool directives — optionally followed by free-text rationale.
const (
	// NoteOrderIndependent marks a map-range loop whose iteration
	// order provably cannot affect results (and which the analyzer's
	// structural heuristics cannot prove safe on their own).
	NoteOrderIndependent = "order-independent"

	// NoteHotPath on a function's doc comment marks it as a hot-path
	// root: the function and everything it statically calls within
	// the same package must keep its state in dense Idx- or
	// port-indexed slices, not maps.
	NoteHotPath = "hotpath"

	// NoteMapOK marks a map access (or a map[FlowID]-keyed value)
	// inside a hot function as intentional: a lookup by an ID the
	// caller only has as an ID, or retire- and arrival-path work
	// outside steady state.
	NoteMapOK = "map-ok"
)

const notePrefix = "//saath:"

// Annotations indexes every //saath: directive in a package. A
// directive suppresses a finding when it appears on the same line as
// the flagged node or on the line immediately above it, or — for
// whole-function annotations — anywhere in the enclosing function's
// doc comment.
type Annotations struct {
	// byLine maps file name -> line -> set of directive names on that
	// line (trailing comments register on their own line; a directive
	// on a line of its own suppresses the line below it).
	byLine map[string]map[int]map[string]bool

	// funcs maps each annotated FuncDecl to its directive set.
	funcs map[*ast.FuncDecl]map[string]bool
}

// ParseAnnotations scans the files for //saath: directives.
func ParseAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	an := &Annotations{
		byLine: make(map[string]map[int]map[string]bool),
		funcs:  make(map[*ast.FuncDecl]map[string]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := directiveName(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				lines := an.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					an.byLine[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					lines[pos.Line] = set
				}
				set[name] = true
			}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				name, ok := directiveName(c.Text)
				if !ok {
					continue
				}
				set := an.funcs[fd]
				if set == nil {
					set = make(map[string]bool)
					an.funcs[fd] = set
				}
				set[name] = true
			}
		}
	}
	return an
}

// directiveName extracts the annotation name from a //saath: comment,
// tolerating trailing rationale text ("//saath:map-ok retire path
// only").
func directiveName(text string) (string, bool) {
	if !strings.HasPrefix(text, notePrefix) {
		return "", false
	}
	rest := strings.TrimPrefix(text, notePrefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}

// At reports whether directive name is present on pos's line or the
// line immediately above it.
func (an *Annotations) At(fset *token.FileSet, pos token.Pos, name string) bool {
	if an == nil {
		return false
	}
	p := fset.Position(pos)
	lines := an.byLine[p.Filename]
	if lines == nil {
		return false
	}
	return lines[p.Line][name] || lines[p.Line-1][name]
}

// Func reports whether the function's doc comment carries the
// directive.
func (an *Annotations) Func(fd *ast.FuncDecl, name string) bool {
	if an == nil || fd == nil {
		return false
	}
	return an.funcs[fd][name]
}

// Suppressed reports whether a finding at pos inside enclosing (which
// may be nil) is suppressed by a line-level or function-level
// directive.
func (an *Annotations) Suppressed(fset *token.FileSet, pos token.Pos, enclosing *ast.FuncDecl, name string) bool {
	return an.At(fset, pos, name) || an.Func(enclosing, name)
}

// enclosingFunc returns the FuncDecl in file whose body spans pos, or
// nil.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return fd
		}
	}
	return nil
}
