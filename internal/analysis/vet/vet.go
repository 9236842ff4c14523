// Package vet is a dependency-free miniature of golang.org/x/tools'
// go/analysis framework: an Analyzer/Pass/Diagnostic vocabulary, a
// driver that speaks the `go vet -vettool` unitchecker protocol, and a
// standalone loader built on `go list -export`. The build environment
// for this repository is hermetic (no module proxy), so the framework
// re-implements — against the standard library only — exactly the
// subset the voiceprintvet analyzers need; the API shapes mirror
// go/analysis so a later migration onto x/tools is mechanical. The
// root module stays dependency-free by construction.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //voiceprintvet:ignore directives.
	Name string
	// Doc is the one-paragraph description shown by `voiceprintvet help`.
	Doc string
	// AppliesTo filters packages by import path; nil runs everywhere.
	// Test variants ("pkg [pkg.test]") are normalized before the call.
	AppliesTo func(pkgPath string) bool
	// Run reports findings on one package via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	store *FactStore
	diags []Diagnostic
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportFact records value as this analyzer's package fact for the
// package under analysis; dependent packages read it back with
// ImportFact. The driver carries it across package (and, under go vet,
// process) boundaries — see FactStore.
func (p *Pass) ExportFact(value any) error {
	return p.store.Export(NormalizePath(p.Pkg.Path()), p.Analyzer.Name, value)
}

// ImportFact decodes this analyzer's package fact for an imported
// package into out, reporting whether one was present. Facts exist only
// for packages of this module that the driver has already analyzed —
// standard-library imports never have any.
func (p *Pass) ImportFact(pkgPath string, out any) (bool, error) {
	return p.store.Import(NormalizePath(pkgPath), p.Analyzer.Name, out)
}

// Unit is one loaded, type-checked compilation unit.
type Unit struct {
	// Path is the import path as reported by the build system; test
	// variants keep their " [pkg.test]" suffix.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// FactsOnly marks a module package loaded only as a dependency of
	// the requested patterns: analyze it for the facts its dependents
	// need, but do not report its diagnostics.
	FactsOnly bool
}

// NormalizePath strips the test-variant suffix from an import path:
// "voiceprint/internal/core [voiceprint/internal/core.test]" becomes
// "voiceprint/internal/core".
func NormalizePath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// NewInfo returns a types.Info with every map the analyzers consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Run applies the analyzers to the unit and returns the surviving
// diagnostics in position order: AppliesTo filtering, _test.go
// filtering (test files exercise deprecated fields and seeded
// nondeterminism on purpose), and //voiceprintvet:ignore suppression
// all happen here so every driver — go vet, standalone, tests —
// behaves identically. store carries cross-package facts; nil gets a
// private throwaway store (no facts in, none kept).
func Run(u *Unit, analyzers []*Analyzer, store *FactStore) ([]Diagnostic, error) {
	if store == nil {
		store = NewFactStore()
	}
	pkgPath := NormalizePath(u.Path)
	ignores, badDirectives := collectIgnores(u.Fset, u.Files)
	var out []Diagnostic
	out = append(out, badDirectives...)
	for _, a := range analyzers {
		if a.AppliesTo != nil && !a.AppliesTo(pkgPath) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			store:     store,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkgPath, err)
		}
		for _, d := range pass.diags {
			posn := u.Fset.Position(d.Pos)
			if strings.HasSuffix(posn.Filename, "_test.go") {
				continue
			}
			if ignores.matches(posn, a.Name) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := u.Fset.Position(out[i].Pos), u.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// ignoreDirective is the suppression marker: a comment of the form
//
//	//voiceprintvet:ignore analyzer1,analyzer2 reason for the exemption
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory — an unexplained suppression is itself reported.
const ignorePrefix = "//voiceprintvet:ignore"

type ignoreSet map[string]map[int]map[string]bool // file -> line -> analyzer

func (s ignoreSet) matches(posn token.Position, analyzer string) bool {
	lines := s[posn.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{posn.Line, posn.Line - 1} {
		if as := lines[line]; as != nil && (as[analyzer] || as["*"]) {
			return true
		}
	}
	return false
}

func collectIgnores(fset *token.FileSet, files []*ast.File) (ignoreSet, []Diagnostic) {
	set := make(ignoreSet)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "voiceprintvet",
						Message:  "malformed ignore directive: want //voiceprintvet:ignore <analyzers> <reason>",
					})
					continue
				}
				posn := fset.Position(c.Pos())
				lines := set[posn.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					set[posn.Filename] = lines
				}
				as := lines[posn.Line]
				if as == nil {
					as = make(map[string]bool)
					lines[posn.Line] = as
				}
				for _, name := range strings.Split(fields[0], ",") {
					as[name] = true
				}
			}
		}
	}
	return set, bad
}

// PathIn reports whether pkgPath is one of the given paths.
func PathIn(pkgPath string, paths ...string) bool {
	for _, p := range paths {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// IsNamed reports whether t (after pointer unwrapping) is the named
// type path.name.
func IsNamed(t types.Type, path, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// WalkStack traverses every file in the pass in depth-first order,
// calling fn with the node and the stack of its ancestors (outermost
// first, not including the node itself). Returning false from fn skips
// the node's children.
func WalkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			stack = append(stack, n)
			if !descend {
				// ast.Inspect will not call us with nil for this node's
				// (skipped) subtree end unless we return true, so pop now.
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		})
	}
}
