package lint

// The fixture harness is a small analysistest clone: it loads a
// package from testdata/src/<import path>, resolving saath/... imports
// from testdata stubs and standard-library imports from `go list
// -export` data, runs one analyzer, and compares the diagnostics
// against // want "regex" comments line by line.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

type fixtureLoader struct {
	root string // testdata/src
	fset *token.FileSet
	pkgs map[string]*Package
	std  types.Importer

	mu         sync.Mutex
	stdExports map[string]string
}

func newFixtureLoader(t *testing.T) *fixtureLoader {
	t.Helper()
	l := &fixtureLoader{
		root:       filepath.Join("testdata", "src"),
		fset:       token.NewFileSet(),
		pkgs:       make(map[string]*Package),
		stdExports: make(map[string]string),
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, err := l.stdExport(path)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	})
	return l
}

// stdExport resolves a standard-library package's export data file,
// building it into the go cache on first use.
func (l *fixtureLoader) stdExport(path string) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f, ok := l.stdExports[path]; ok {
		return f, nil
	}
	out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
	if err != nil {
		return "", fmt.Errorf("go list -export %s: %v", path, err)
	}
	f := strings.TrimSpace(string(out))
	if f == "" {
		return "", fmt.Errorf("no export data for %q", path)
	}
	l.stdExports[path] = f
	return f, nil
}

// Import makes the loader usable as the type-checker's importer:
// fixture packages come from testdata, everything else from std
// export data.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.root, filepath.FromSlash(path)); dirExists(dir) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// load parses and type-checks the fixture package at the import path,
// memoized so diamond imports share one types.Package.
func (l *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		Notes: ParseAnnotations(l.fset, files),
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

var wantRx = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantPatRx = regexp.MustCompile(`"([^"]*)"`)

// wants collects the expected-diagnostic patterns per file line.
type wantKey struct {
	file string
	line int
}

func fixtureWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[wantKey][]string {
	t.Helper()
	out := make(map[wantKey][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pats := wantPatRx.FindAllStringSubmatch(m[1], -1)
				if len(pats) == 0 {
					t.Fatalf("%s: malformed want comment %q", fset.Position(c.Slash), c.Text)
				}
				pos := fset.Position(c.Slash)
				k := wantKey{pos.Filename, pos.Line}
				for _, p := range pats {
					out[k] = append(out[k], p[1])
				}
			}
		}
	}
	return out
}

// runFixture loads the fixture package, applies one analyzer, and
// checks findings against the want comments.
func runFixture(t *testing.T, a *Analyzer, importPath string) {
	t.Helper()
	l := newFixtureLoader(t)
	pkg, err := l.load(importPath)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunPackage(a, pkg)
	if err != nil {
		t.Fatal(err)
	}
	wants := fixtureWants(t, pkg.Fset, pkg.Files)

	for _, f := range findings {
		k := wantKey{f.Pos.Filename, f.Pos.Line}
		matched := -1
		for i, pat := range wants[k] {
			ok, err := regexp.MatchString(pat, f.Message)
			if err != nil {
				t.Fatalf("bad want pattern %q: %v", pat, err)
			}
			if ok {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding at %s: %s", f.Pos, f.Message)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, pats := range wants {
		for _, pat := range pats {
			t.Errorf("%s:%d: expected finding matching %q, got none", k.file, k.line, pat)
		}
	}
}

// expectNoFindings asserts the analyzer yields nothing on the fixture
// package (allowlisted-package negatives).
func expectNoFindings(t *testing.T, a *Analyzer, importPath string) {
	t.Helper()
	l := newFixtureLoader(t)
	pkg, err := l.load(importPath)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunPackage(a, pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding at %s: %s", f.Pos, f.Message)
	}
}
