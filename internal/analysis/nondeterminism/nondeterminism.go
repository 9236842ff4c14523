// Package nondeterminism forbids nondeterministic inputs on the
// detection path. The paper's reproducibility claim — bit-identical
// verdicts for a given beacon stream — holds only if detection rounds
// read no wall clock, draw no global randomness, and never let map
// iteration order leak into slices or output. Stream time arrives with
// the observations; randomness must come from an explicitly seeded
// *rand.Rand; map-fed slices must be sorted before use.
//
// The one sanctioned wall-clock use is stage timing behind an inlined
// `Observer != nil` guard: timing how long a stage took does not alter
// what it computed. An unguarded read is reported like any other.
package nondeterminism

import (
	"go/ast"
	"go/types"

	"voiceprint/internal/analysis/vet"
)

const observerPkg = "voiceprint/internal/core"

// strictPkgs are the pure detection-math packages — plus the scenario
// generators, whose traces must be pure functions of the root seed (the
// committed campaign golden hashes and the scorecard baseline both
// depend on it): any wall-clock read outside an observer guard is a
// determinism bug.
var strictPkgs = []string{
	"voiceprint/internal/core",
	"voiceprint/internal/dtw",
	"voiceprint/internal/fusion",
	"voiceprint/internal/stats",
	"voiceprint/internal/timeseries",
	"voiceprint/internal/vanet",
}

// schedulingPkgs run the detection rounds: wall time is legitimate I/O
// there (net deadlines, latency metrics), but global randomness and
// map-order leaks still are not.
var schedulingPkgs = []string{
	"voiceprint/internal/service",
}

// Analyzer is the nondeterminism checker.
var Analyzer = &vet.Analyzer{
	Name: "nondeterminism",
	Doc: "forbid wall-clock reads, global randomness and map-order leaks on the detection path\n\n" +
		"Detection output must be a pure function of the beacon stream. time.Now/" +
		"time.Since are allowed only inside an `observer != nil` instrumentation " +
		"guard; math/rand package-level functions are always forbidden (thread a " +
		"seeded *rand.Rand); a map range that appends to a slice must be followed " +
		"by a sort of that slice in the same block.",
	AppliesTo: func(pkgPath string) bool {
		return vet.PathIn(pkgPath, strictPkgs...) || vet.PathIn(pkgPath, schedulingPkgs...)
	},
	Run: run,
}

func run(pass *vet.Pass) error {
	strict := vet.PathIn(pass.Pkg.Path(), strictPkgs...)
	vet.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n, stack, strict)
		case *ast.RangeStmt:
			checkMapRange(pass, n, stack)
		}
		return true
	})
	return nil
}

func checkCall(pass *vet.Pass, call *ast.CallExpr, stack []ast.Node, strict bool) {
	fn := vet.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if !strict {
			return
		}
		if fn.Name() != "Now" && fn.Name() != "Since" {
			return
		}
		if inObserverGuard(pass.TypesInfo, stack) {
			return
		}
		pass.Reportf(call.Pos(), "time.%s on the detection path: detection output must be a pure function of the beacon stream; allowed only inside an `observer != nil` instrumentation guard", fn.Name())
	case "math/rand", "math/rand/v2":
		// Only package-level draws are nondeterministic; methods on an
		// explicitly seeded *rand.Rand (and the constructors producing
		// one) are the sanctioned source of randomness.
		if fn.Type().(*types.Signature).Recv() != nil {
			return
		}
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return
		}
		pass.Reportf(call.Pos(), "%s.%s draws from the global generator: thread an explicitly seeded *rand.Rand instead", fn.Pkg().Path(), fn.Name())
	case "fmt":
		// Printing from a detection package is output the scheduler
		// cannot order; it also smells of leftover debugging.
		if !strict {
			return
		}
		switch fn.Name() {
		case "Print", "Println", "Printf":
			pass.Reportf(call.Pos(), "fmt.%s writes directly to stdout from a detection package; return values or use the service logger", fn.Name())
		}
	}
}

// inObserverGuard reports whether an ancestor if-statement guards the
// node with a nil check on an expression of type core.Observer.
func inObserverGuard(info *types.Info, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	node := stack[len(stack)-1]
	for _, anc := range stack {
		ifs, ok := anc.(*ast.IfStmt)
		if !ok || !vet.InBody(ifs, node) {
			continue
		}
		checked := vet.NilCheckedExpr(info, ifs.Cond)
		if checked == nil {
			continue
		}
		if t := vet.TypeOf(info, checked); t != nil && vet.IsNamed(t, observerPkg, "Observer") {
			return true
		}
	}
	return false
}

// checkMapRange flags `for k, v := range m` over a map when the body
// appends to a slice that is not subsequently sorted in the enclosing
// block, or prints: both leak the map's randomized iteration order.
func checkMapRange(pass *vet.Pass, rs *ast.RangeStmt, stack []ast.Node) {
	t := vet.TypeOf(pass.TypesInfo, rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	var appended []ast.Expr
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := vet.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin && len(call.Args) > 0 {
				appended = append(appended, call.Args[0])
			}
		}
		return true
	})
	for _, target := range appended {
		if isLoopLocal(pass.TypesInfo, rs, target) {
			continue
		}
		if sortedAfter(pass.TypesInfo, stack, rs, target) {
			continue
		}
		pass.Reportf(rs.Pos(), "map iteration order feeds %s: sort it before use (slices.Sort / sort.Slice) or iterate a sorted key slice", exprString(target))
	}
}

// isLoopLocal reports whether the append target is declared inside the
// range statement itself (order still varies, but the slice cannot
// outlive one iteration's scope in a way a sort could fix; the common
// real-world case is per-iteration scratch keyed by the element).
func isLoopLocal(info *types.Info, rs *ast.RangeStmt, e ast.Expr) bool {
	id, ok := vet.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return rs.Pos() <= obj.Pos() && obj.Pos() < rs.End()
}

// sortedAfter reports whether a statement after rs in its enclosing
// block sorts the appended slice.
func sortedAfter(info *types.Info, stack []ast.Node, rs *ast.RangeStmt, target ast.Expr) bool {
	var block *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			block = b
			break
		}
	}
	if block == nil {
		return false
	}
	past := false
	for _, stmt := range block.List {
		if stmt == ast.Stmt(rs) {
			past = true
			continue
		}
		if !past {
			continue
		}
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			fn := vet.CalleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if pkg := fn.Pkg().Path(); pkg != "sort" && pkg != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if vet.SameExpr(info, arg, target) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func exprString(e ast.Expr) string {
	switch e := vet.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "a slice"
}
