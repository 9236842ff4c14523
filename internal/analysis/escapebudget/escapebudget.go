// Package escapebudget gates the detection round's allocation budget at
// vet time. Functions annotated
//
//	// voiceprintvet:noescape
//
// in their doc comment declare that they allocate nothing on the heap:
// the round hot path (compare/confirm stages), the obs observer hooks,
// the Series window views and the WAL append encoders all carry the
// annotation, pinning the 9-allocs-per-round contract structurally
// instead of only through benchmark assertions.
//
// The checker runs the real compiler's escape analysis
// (`go build -gcflags=-m=2`), parses its diagnostics, and fails any
// annotated function whose body contains an allocation site:
//
//	moved to heap: x        a local (or parameter) forced to the heap
//	<expr> escapes to heap  a heap allocation inside the function
//
// Flow facts — `leaking param: x`, `leaking param content: x`, and the
// `... to result` variants — are deliberately NOT violations: they say a
// caller's value may be retained, not that this function allocates. The
// compare hot path hands arena slices (already heap-resident, reused
// across rounds) to the DTW workspace, which the compiler reports as a
// leak; no per-round allocation results, so the budget ignores it. See
// DESIGN.md §12.
//
// Unlike the vet analyzers, escapebudget reads the compiler's -m=2
// output rather than type-checked syntax, so it is a subcommand of its
// own in the same binary:
//
//	voiceprintvet escape ./...
//
// Suppress a deliberate allocation with the usual directive on the
// diagnostic's line or the line above it:
//
//	//voiceprintvet:ignore escapebudget <reason>
package escapebudget

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic is one parsed escape-analysis line.
type Diagnostic struct {
	File    string
	Line    int
	Col     int
	Message string
}

// Target is one function annotated voiceprintvet:noescape, identified
// by its file and the line span of the whole declaration.
type Target struct {
	Name      string // "Recv.Name" for methods, "Name" for functions
	File      string
	StartLine int
	EndLine   int
}

// Finding is one budget violation: an allocation-site diagnostic inside
// an annotated function's span.
type Finding struct {
	File    string
	Line    int
	Col     int
	Func    string
	Message string
}

// noescapeDirective marks a function as allocation-free; it must appear
// on its own line of the doc comment.
const noescapeDirective = "voiceprintvet:noescape"

// ignorePrefix matches the repository-wide suppression grammar (see
// internal/analysis/vet): analyzers list, then a mandatory reason.
const ignorePrefix = "//voiceprintvet:ignore"

// ParseDiagnostics reads `go build -gcflags=-m=2` output and returns
// the well-formed diagnostics, deduplicated.
//
// The -m=2 stream interleaves four shapes the parser must separate:
//
//	# voiceprint/internal/core                          package header
//	f.go:9:6: can inline perSample ...                  plain diagnostic
//	f.go:9:2: moved to heap: x:                         detailed header
//	f.go:9:2:   flow: {heap} = &x:                      indented detail
//
// At -m=2 the compiler prints most diagnostics twice — once with a
// trailing colon followed by indented flow/"from" detail lines, once
// plain. Detail lines (leading whitespace in the message) are dropped,
// the trailing colon is trimmed, and exact duplicates collapse.
func ParseDiagnostics(r io.Reader) []Diagnostic {
	var out []Diagnostic
	seen := make(map[Diagnostic]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d, ok := parseLine(line)
		if !ok || seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// parseLine splits one "file:line:col: message" diagnostic. Detail
// lines (indented messages) and non-diagnostic output return ok=false.
func parseLine(s string) (Diagnostic, bool) {
	// Find ": " after the third colon-separated field. Scan colons
	// left to right so Windows-style or dotted paths don't confuse the
	// split: the line and column fields are the first two consecutive
	// integer fields.
	rest := s
	var file string
	for {
		i := strings.Index(rest, ":")
		if i < 0 {
			return Diagnostic{}, false
		}
		file = s[:len(s)-len(rest)+i]
		rest = rest[i+1:]
		// Expect "line:col: msg" from here.
		j := strings.Index(rest, ":")
		if j < 0 {
			return Diagnostic{}, false
		}
		lineNo, err1 := strconv.Atoi(rest[:j])
		after := rest[j+1:]
		k := strings.Index(after, ":")
		if k < 0 {
			return Diagnostic{}, false
		}
		colNo, err2 := strconv.Atoi(after[:k])
		if err1 != nil || err2 != nil {
			continue // the colon belonged to the path; keep scanning
		}
		msg := after[k+1:]
		if !strings.HasPrefix(msg, " ") {
			return Diagnostic{}, false
		}
		msg = msg[1:]
		if msg == "" || msg[0] == ' ' || msg[0] == '\t' {
			return Diagnostic{}, false // indented flow/from detail line
		}
		msg = strings.TrimSuffix(msg, ":")
		return Diagnostic{File: file, Line: lineNo, Col: colNo, Message: msg}, true
	}
}

// Violation reports whether a diagnostic message is an allocation site
// (as opposed to a flow fact or an inlining note).
func Violation(msg string) bool {
	return strings.HasPrefix(msg, "moved to heap:") ||
		strings.HasSuffix(msg, "escapes to heap")
}

// CollectTargets returns the noescape-annotated functions in files.
// Paths are reported as recorded in fset (join them against the
// package directory before matching compiler output).
func CollectTargets(fset *token.FileSet, files []*ast.File) []Target {
	var out []Target
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || !hasNoescape(fd.Doc) {
				continue
			}
			start := fset.Position(fd.Pos())
			end := fset.Position(fd.End())
			out = append(out, Target{
				Name:      funcName(fd),
				File:      start.Filename,
				StartLine: start.Line,
				EndLine:   end.Line,
			})
		}
	}
	return out
}

func hasNoescape(doc *ast.CommentGroup) bool {
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == noescapeDirective {
			return true
		}
	}
	return false
}

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// IgnoreSet records escapebudget suppressions: file -> set of lines a
// directive covers (its own line and the one below it).
type IgnoreSet map[string]map[int]bool

// Ignored reports whether a diagnostic at file:line is suppressed.
func (s IgnoreSet) Ignored(file string, line int) bool { return s[file][line] }

// CollectIgnores gathers //voiceprintvet:ignore directives naming
// escapebudget (or *). Malformed directives — a missing reason — are
// returned as findings so an unexplained suppression cannot pass.
func CollectIgnores(fset *token.FileSet, files []*ast.File) (IgnoreSet, []Finding) {
	set := make(IgnoreSet)
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				posn := fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
				if len(fields) < 2 {
					bad = append(bad, Finding{
						File: posn.Filename, Line: posn.Line, Col: posn.Column,
						Message: "malformed ignore directive: want //voiceprintvet:ignore <analyzers> <reason>",
					})
					continue
				}
				covers := false
				for _, name := range strings.Split(fields[0], ",") {
					if name == "escapebudget" || name == "*" {
						covers = true
					}
				}
				if !covers {
					continue
				}
				lines := set[posn.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					set[posn.Filename] = lines
				}
				// A directive covers its own line (trailing comment)
				// and the line below it (comment-above form).
				lines[posn.Line] = true
				lines[posn.Line+1] = true
			}
		}
	}
	return set, bad
}

// Check matches allocation-site diagnostics against annotated function
// spans, honoring suppressions. Diagnostic and target file paths must
// be in the same form (both absolute, or both relative to one root).
func Check(targets []Target, ignores IgnoreSet, diags []Diagnostic) []Finding {
	var out []Finding
	// The compiler describes one heap move with two messages at the
	// same position ("x escapes to heap" + "moved to heap: x"); report
	// each position once.
	type pos struct {
		file      string
		line, col int
	}
	reported := make(map[pos]bool)
	for _, d := range diags {
		if !Violation(d.Message) || reported[pos{d.File, d.Line, d.Col}] {
			continue
		}
		for _, t := range targets {
			if d.File != t.File || d.Line < t.StartLine || d.Line > t.EndLine {
				continue
			}
			if ignores.Ignored(d.File, d.Line) {
				break
			}
			reported[pos{d.File, d.Line, d.Col}] = true
			out = append(out, Finding{
				File: d.File, Line: d.Line, Col: d.Col,
				Func:    t.Name,
				Message: fmt.Sprintf("%s is annotated voiceprintvet:noescape but %s", t.Name, d.Message),
			})
			break
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// listedPackage is the subset of `go list -json` output the driver
// needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
}

// Run executes the escape gate over the named package patterns (module
// syntax, e.g. ./...), writing findings to w. It returns the findings
// and the first hard error (toolchain failure, unparsable source).
func Run(patterns []string, w io.Writer) ([]Finding, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := listPackages(patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	var (
		targets  []Target
		ignores  = make(IgnoreSet)
		findings []Finding
	)
	for _, pkg := range pkgs {
		var files []*ast.File
		for _, name := range pkg.GoFiles {
			path := filepath.Join(pkg.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("escapebudget: parse %s: %w", path, err)
			}
			files = append(files, f)
		}
		targets = append(targets, CollectTargets(fset, files)...)
		ign, bad := CollectIgnores(fset, files)
		for file, lines := range ign {
			if ignores[file] == nil {
				ignores[file] = lines
				continue
			}
			for line := range lines {
				ignores[file][line] = true
			}
		}
		findings = append(findings, bad...)
	}

	if len(targets) > 0 {
		out, err := escapeOutput(patterns)
		if err != nil {
			return nil, err
		}
		diags := ParseDiagnostics(bytes.NewReader(out))
		// The compiler prints paths relative to the working directory;
		// parsed targets carry absolute paths. Put both in absolute
		// form before matching.
		cwd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		for i := range diags {
			if !filepath.IsAbs(diags[i].File) {
				diags[i].File = filepath.Join(cwd, diags[i].File)
			}
		}
		findings = append(findings, Check(targets, ignores, diags)...)
	}

	for _, f := range findings {
		fmt.Fprintf(w, "%s:%d:%d: [escapebudget] %s\n", f.File, f.Line, f.Col, f.Message)
	}
	return findings, nil
}

// Main is the `voiceprintvet escape` entry point; it returns the
// process exit code.
func Main(args []string) int {
	findings, err := Run(args, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "voiceprintvet escape: %v\n", err)
		return 2
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

func listPackages(patterns []string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=Dir,ImportPath,GoFiles", "--"}, patterns...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("escapebudget: go list %s: %w", strings.Join(patterns, " "), err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("escapebudget: decode go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// escapeOutput builds the patterns with escape-analysis diagnostics
// enabled and returns the compiler's combined output. The build cache
// replays -m diagnostics, so repeat runs stay fast.
func escapeOutput(patterns []string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m=2", "--"}, patterns...)...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("escapebudget: go build -gcflags=-m=2 failed: %w\n%s", err, buf.Bytes())
	}
	return buf.Bytes(), nil
}
