// Package vettest is the fixture harness for the voiceprintvet
// analyzers — a dependency-free miniature of x/tools'
// go/analysis/analysistest. A fixture is a directory of Go files
// annotated with expectations:
//
//	sigma := StdDev(xs)
//	if sigma == 0 { // want "floating-point == is NaN-unsafe"
//
// Each `// want "regexp"` comment (several per line allowed) demands a
// diagnostic on that line whose message matches the double-quoted
// regexp; a diagnostic with no matching expectation, or an expectation
// with no matching diagnostic, fails the test. Fixtures are
// type-checked for real — imports of module or standard-library
// packages are satisfied from compiler export data via `go list
// -export` — under a caller-chosen package path, so a fixture can pose
// as a detection-path package (the analyzers discriminate by import
// path) without living at it.
package vettest

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"voiceprint/internal/analysis/vet"
)

// wantRe extracts the `// want ...` tail of an expectation comment.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// expectation is one `// want` regexp awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run parses and type-checks the fixture directory as a package with
// import path asPath, applies the analyzer through the same vet.Run
// entry point the driver uses (so AppliesTo filtering and
// //voiceprintvet:ignore suppression behave identically), and asserts
// the diagnostics are exactly the fixture's `// want` expectations.
func Run(t *testing.T, a *vet.Analyzer, dir, asPath string) {
	t.Helper()
	diags, fset, exps := run(t, a, dir, asPath)

	for _, d := range diags {
		posn := fset.Position(d.Pos)
		if !claim(exps, posn.Filename, posn.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: [%s] %s",
				filepath.Base(posn.Filename), posn.Line, d.Analyzer, d.Message)
		}
	}
	for _, e := range exps {
		if !e.matched {
			t.Errorf("%s:%d: no diagnostic matched want %s",
				filepath.Base(e.file), e.line, e.raw)
		}
	}
}

// RunExpectClean asserts the analyzer reports nothing on the fixture
// when checked under asPath, ignoring any `// want` annotations. It
// pins package scoping: a violation-laden fixture re-checked under an
// out-of-scope import path must come back clean.
func RunExpectClean(t *testing.T, a *vet.Analyzer, dir, asPath string) {
	t.Helper()
	diags, fset, _ := run(t, a, dir, asPath)
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		t.Errorf("%s:%d: diagnostic on out-of-scope package %s: [%s] %s",
			filepath.Base(posn.Filename), posn.Line, asPath, d.Analyzer, d.Message)
	}
}

func run(t *testing.T, a *vet.Analyzer, dir, asPath string) ([]vet.Diagnostic, *token.FileSet, []*expectation) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	var (
		files   []*ast.File
		exps    []*expectation
		imports = make(map[string]bool)
	)
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse fixture: %v", err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			imports[path] = true
		}
		exps = append(exps, collectWants(t, fset, f)...)
	}

	paths := make([]string, 0, len(imports))
	for p := range imports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	imp, err := vet.NewDepsImporter(fset, paths)
	if err != nil {
		t.Fatalf("load fixture imports: %v", err)
	}
	conf := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	info := vet.NewInfo()
	pkg, err := conf.Check(asPath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck fixture %s: %v", asPath, err)
	}
	diags, err := vet.Run(&vet.Unit{Path: asPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, []*vet.Analyzer{a})
	if err != nil {
		t.Fatalf("run analyzer on %s: %v", asPath, err)
	}
	return diags, fset, exps
}

// collectWants parses the `// want "re" "re"...` expectations out of one
// file's comments.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	var exps []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			posn := fset.Position(c.Pos())
			for _, raw := range splitQuoted(t, posn, m[1]) {
				pat, err := strconv.Unquote(raw)
				if err != nil {
					t.Fatalf("%s: bad want string %s: %v", posn, raw, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", posn, pat, err)
				}
				exps = append(exps, &expectation{
					file: posn.Filename, line: posn.Line, re: re, raw: raw,
				})
			}
		}
	}
	return exps
}

// splitQuoted splits a run of double-quoted Go strings.
func splitQuoted(t *testing.T, posn token.Position, s string) []string {
	t.Helper()
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		if s[0] != '"' {
			t.Fatalf("%s: want expectations must be double-quoted Go strings, got %q", posn, s)
		}
		end := 1
		for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
			end++
		}
		if end == len(s) {
			t.Fatalf("%s: unterminated want string %q", posn, s)
		}
		out = append(out, s[:end+1])
		s = s[end+1:]
	}
	return out
}

// claim marks the first unmatched expectation on (file, line) whose
// regexp matches msg.
func claim(exps []*expectation, file string, line int, msg string) bool {
	for _, e := range exps {
		if !e.matched && e.file == file && e.line == line && e.re.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}
