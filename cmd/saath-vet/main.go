// Command saath-vet runs the repo's invariant analyzers (detcheck and
// hotpath — see internal/lint) as a go vet tool:
//
//	go build -o bin/saath-vet ./cmd/saath-vet
//	go vet -vettool=$PWD/bin/saath-vet ./...
//
// cmd/go probes the tool (-V=full for its cache ID, -flags for the
// flags it may forward: none), then invokes it once per package with a
// JSON config file of pre-parsed file lists and export-data paths. The
// protocol is re-implemented here because the usual unitchecker entry
// point lives in golang.org/x/tools, which this repo does not depend
// on.
//
// Exit status: 0 with no findings, 2 with findings or on failure to
// load or analyze.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"saath/internal/lint"
)

func main() {
	switch {
	case len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V"):
		fmt.Printf("saath-vet version saath-dev buildID=none\n")
	case len(os.Args) == 2 && os.Args[1] == "-flags":
		fmt.Println("[]")
	case len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg"):
		os.Exit(runVettool(os.Args[1]))
	default:
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which saath-vet) [packages]")
		os.Exit(2)
	}
}

// vetConfig mirrors the JSON config cmd/go hands a -vettool for each
// package (see cmd/go/internal/work's vet action). Only the fields
// the analyzers need are decoded.
type vetConfig struct {
	Compiler                  string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// runVettool checks one package under cmd/go's vettool protocol:
// parse the pre-listed files, type-check against the export data
// paths cmd/go supplies, run the suite, print findings to stderr.
// The vetx facts file must exist afterward or cmd/go errors out; the
// suite exchanges no facts, so an empty file is written.
func runVettool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "saath-vet: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("saath-vet: no facts\n"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		files = append(files, f)
	}

	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := lint.NewInfo()
	tconf := types.Config{Importer: imp}
	if cfg.GoVersion != "" {
		tconf.GoVersion = cfg.GoVersion
	}
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	pkg := &lint.Package{
		Path:  cfg.ImportPath,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		Notes: lint.ParseAnnotations(fset, files),
	}
	var findings []lint.Finding
	for _, a := range lint.Analyzers() {
		fs, err := lint.RunPackage(a, pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		for _, f := range fs {
			// cmd/go also hands the vettool each package's test variant.
			// Tests are out of scope by policy — they may read maps in
			// any order and off the hot path — so findings in _test.go
			// files are dropped.
			if strings.HasSuffix(f.Pos.Filename, "_test.go") {
				continue
			}
			findings = append(findings, f)
		}
	}
	lint.SortFindings(findings)
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
