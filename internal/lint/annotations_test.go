package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const annotationSrc = `package p

import "sort"

// Whole sorts its input.
//
//saath:order-independent sorted before return
func Whole(xs []int) {
	sort.Ints(xs)
}

func Inline(xs []int) {
	//saath:order-independent
	sort.Ints(xs)
}

func Trailing(xs []int) {
	sort.Ints(xs) //saath:order-independent with a rationale
}

func Bare(xs []int) {
	sort.Ints(xs)
}

//saath:hotpath
func Hot() {}

// not a directive: saath:order-independent must start the comment.
func Unmarked() {}
`

func parseAnnotationSrc(t *testing.T) (*token.FileSet, *ast.File, *Annotations) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "anno.go", annotationSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, ParseAnnotations(fset, []*ast.File{f})
}

func funcNamed(f *ast.File, name string) *ast.FuncDecl {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	return nil
}

func callPosIn(t *testing.T, fset *token.FileSet, fd *ast.FuncDecl) token.Pos {
	t.Helper()
	var pos token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && pos == token.NoPos {
			pos = c.Pos()
		}
		return true
	})
	if pos == token.NoPos {
		t.Fatalf("no call in %s", fd.Name.Name)
	}
	return pos
}

func TestAnnotationsFuncLevel(t *testing.T) {
	_, f, notes := parseAnnotationSrc(t)
	if !notes.Func(funcNamed(f, "Whole"), NoteOrderIndependent) {
		t.Error("Whole should carry a func-level order-independent note")
	}
	if notes.Func(funcNamed(f, "Whole"), NoteHotPath) {
		t.Error("Whole should not carry a hotpath note")
	}
	if !notes.Func(funcNamed(f, "Hot"), NoteHotPath) {
		t.Error("Hot should carry a hotpath note")
	}
	if notes.Func(funcNamed(f, "Bare"), NoteOrderIndependent) {
		t.Error("Bare has no annotations")
	}
	if notes.Func(funcNamed(f, "Unmarked"), NoteOrderIndependent) {
		t.Error("a mid-comment mention is not a directive")
	}
}

func TestAnnotationsLineLevel(t *testing.T) {
	fset, f, notes := parseAnnotationSrc(t)

	// Line-above suppression.
	inline := callPosIn(t, fset, funcNamed(f, "Inline"))
	if !notes.At(fset, inline, NoteOrderIndependent) {
		t.Error("line-above //saath:order-independent should suppress the next line")
	}
	// Same-line trailing suppression, with trailing rationale text.
	trailing := callPosIn(t, fset, funcNamed(f, "Trailing"))
	if !notes.At(fset, trailing, NoteOrderIndependent) {
		t.Error("trailing //saath:order-independent should suppress its own line")
	}
	if notes.At(fset, trailing, NoteMapOK) {
		t.Error("an order-independent note must not satisfy a map-ok query")
	}
	// No annotation anywhere near Bare's call.
	bare := callPosIn(t, fset, funcNamed(f, "Bare"))
	if notes.At(fset, bare, NoteOrderIndependent) {
		t.Error("Bare's call has no annotation")
	}
}

func TestSuppressedCombinesLineAndFunc(t *testing.T) {
	fset, f, notes := parseAnnotationSrc(t)
	whole := funcNamed(f, "Whole")
	pos := callPosIn(t, fset, whole)
	if !notes.Suppressed(fset, pos, whole, NoteOrderIndependent) {
		t.Error("func-level note should suppress calls inside the function")
	}
	bare := funcNamed(f, "Bare")
	if notes.Suppressed(fset, callPosIn(t, fset, bare), bare, NoteOrderIndependent) {
		t.Error("Bare is unsuppressed")
	}
}

func TestDirectiveName(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"//saath:hotpath", "hotpath", true},
		{"//saath:order-independent sorted before return", "order-independent", true},
		{"//saath:map-ok\tretire path only", "map-ok", true},
		{"//saath:", "", false},
		{"// saath:hotpath", "", false},
		{"// plain comment", "", false},
	}
	for _, c := range cases {
		got, ok := directiveName(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("directiveName(%q) = %q, %v; want %q, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}
