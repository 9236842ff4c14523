package vet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Main is the entry point of the voiceprintvet multichecker:
//
//	voiceprintvet [packages]   load via `go list -export` and analyze
//	voiceprintvet help         list the analyzers
//
// It analyzes the non-test files of the matched packages and exits
// non-zero when any diagnostic is reported.
func Main(analyzers ...*Analyzer) {
	progname := filepath.Base(os.Args[0])
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [packages] | %s help\n", progname, progname)
		os.Exit(2)
	}
	flag.Parse()

	args := flag.Args()
	if len(args) == 1 && args[0] == "help" {
		fmt.Printf("%s enforces the voiceprint repository invariants:\n\n", progname)
		for _, a := range analyzers {
			fmt.Printf("  %s: %s\n", a.Name, strings.Split(a.Doc, "\n")[0])
		}
		fmt.Printf("\nSuppress a finding with `//voiceprintvet:ignore <analyzer> <reason>`\non the offending line or the line above it.\n")
		return
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	units, err := loadPackages(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	exit := 0
	for _, u := range units {
		diags, err := Run(u, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			os.Exit(1)
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", u.Fset.Position(d.Pos), d.Analyzer, d.Message)
			exit = 1
		}
	}
	os.Exit(exit)
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	ImportMap  map[string]string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -deps -json` on the patterns and
// returns every listed package, imports before importers, together with
// the compiler export data file of each package that has one. It shells
// out to the go command but needs no network: the module is
// dependency-free.
func goList(patterns []string) ([]*listPackage, map[string]string, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []*listPackage
	exportFiles := make(map[string]string) // import path -> export data
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Export != "" {
			exportFiles[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, exportFiles, nil
}

// loadPackages resolves the patterns with `go list -export -deps` and
// parses and type-checks every package the patterns match from source.
// Imports are satisfied from compiler export data, so no package is
// type-checked twice; packages listed only as dependencies are not
// loaded at all.
func loadPackages(patterns []string) ([]*Unit, error) {
	pkgs, exportFiles, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exportFiles)
	var units []*Unit
	for _, p := range pkgs {
		if p.Standard || p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		u, err := checkPackage(fset, imp, p)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

func checkPackage(fset *token.FileSet, imp types.Importer, p *listPackage) (*Unit, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[importPath]; ok {
				importPath = mapped
			}
			return imp.Import(importPath)
		}),
		Sizes: types.SizesFor("gc", build.Default.GOARCH),
	}
	info := NewInfo()
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
	}
	return &Unit{Path: p.ImportPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// NewDepsImporter resolves the given import paths with `go list -export
// -deps` and returns an importer satisfying them (and everything they
// transitively import) from compiler export data. The fixture harness
// uses it to typecheck analyzer fixtures whose imports are real module
// and standard-library packages.
func NewDepsImporter(fset *token.FileSet, paths []string) (types.Importer, error) {
	if len(paths) == 0 {
		return newExportImporter(fset, nil), nil
	}
	_, exportFiles, err := goList(paths)
	if err != nil {
		return nil, err
	}
	return newExportImporter(fset, exportFiles), nil
}

// newExportImporter satisfies imports from the compiler export data
// files `go list -export` wrote into the build cache.
func newExportImporter(fset *token.FileSet, exportFiles map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exportFiles[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
