// Package goroutinehygiene vets every goroutine spawn in the detection
// and service packages for a join or stop path. A detection round, a
// WAL flusher, or a connection handler that outlives its owner turns
// shutdown into a race: Serve returns while a worker still touches the
// registry, a test binary exits while a flusher holds a file handle,
// chaos scenarios leak goroutines between seeds. The analyzer accepts a
// spawn when it can see any of the conventional lifecycle contracts:
//
//   - WaitGroup join: an Add on the same WaitGroup before the spawn in
//     the spawning function, and a Done inside the goroutine.
//   - Stop signal: the goroutine selects, receives from a channel,
//     ranges over a channel, or references a context.Context — it has a
//     way to be told to stop (or drains a channel its owner closes).
//   - Completion signal: the goroutine sends on a channel or closes one
//     — its owner can wait for it.
//   - Deferred teardown: the spawning function defers a call on an
//     object the goroutine also uses (srv.Close unblocking a blocked
//     Serve loop).
//
// For `go x.method()` with the callee defined in the same package, the
// callee's body is analyzed in place of a literal body. Anything else
// with none of the signals is reported.
//
// Two more leak shapes are reported outright: WaitGroup.Add inside the
// goroutine it accounts (Wait can run before Add — annotate the count
// before spawning), and time.After inside a loop (every iteration
// allocates a timer that is not collected until it fires; hoist a
// Timer/Ticker).
package goroutinehygiene

import (
	"go/ast"
	"go/token"
	"go/types"

	"voiceprint/internal/analysis/vet"
)

// Analyzer is the goroutine-lifecycle checker.
var Analyzer = &vet.Analyzer{
	Name: "goroutinehygiene",
	Doc: "require a join or stop path for every goroutine in detection/service code\n\n" +
		"A `go` statement must be joinable (WaitGroup Add-before/Done-inside), " +
		"stoppable (select, channel receive/range, context), signal completion " +
		"(send or close), or be covered by a deferred teardown on a shared object. " +
		"Also reports WaitGroup.Add inside the spawned goroutine and time.After " +
		"in loops.",
	AppliesTo: func(pkgPath string) bool {
		return vet.PathIn(pkgPath,
			"voiceprint/internal/core",
			"voiceprint/internal/service",
			"voiceprint/internal/wal",
			"voiceprint/internal/fusion",
			"voiceprint/internal/obs",
			"voiceprint/internal/testkit",
			"voiceprint/cmd/voiceprintd",
		)
	},
	Run: run,
}

type checker struct {
	pass *vet.Pass
	// decls maps same-package functions to their declaration, so
	// `go x.method()` can be judged by the callee's own body.
	decls map[*types.Func]*ast.FuncDecl
}

func run(pass *vet.Pass) error {
	c := &checker{pass: pass, decls: make(map[*types.Func]*ast.FuncDecl)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd.Body)
		}
	}
	checkTimerLoops(pass)
	return nil
}

// checkFunc vets every go statement lexically inside body (including
// those in nested literals — the enclosing-function context used for
// Add-before and deferred-teardown evidence is always the top-level
// declaration, which is where those signals live in practice).
func (c *checker) checkFunc(body *ast.BlockStmt) {
	// Evidence available anywhere in the declaration: WaitGroup Add
	// positions by key, and base objects of deferred calls.
	adds := map[vet.SelectorKey][]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if key, ok := wgCall(c.pass.TypesInfo, call, "Add"); ok {
				adds[key] = append(adds[key], call.Pos())
			}
		}
		return true
	})
	// Teardown evidence only counts at the declaration's own level: a
	// defer inside a spawned literal belongs to that goroutine, not to
	// the function that spawned it.
	deferred := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			if sel, ok := vet.Unparen(d.Call.Fun).(*ast.SelectorExpr); ok {
				if key, ok := vet.KeyOf(c.pass.TypesInfo, sel.X); ok {
					deferred[key.Base] = true
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		c.checkSpawn(g, adds, deferred)
		return true
	})
}

// checkSpawn judges one go statement against the lifecycle evidence of
// its enclosing declaration.
func (c *checker) checkSpawn(g *ast.GoStmt, adds map[vet.SelectorKey][]token.Pos, deferred map[types.Object]bool) {
	info := c.pass.TypesInfo

	// The body to analyze: the spawned literal, or — for a same-package
	// named callee — its declaration body.
	var body *ast.BlockStmt
	if lit, ok := vet.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else if fn := vet.CalleeFunc(info, g.Call); fn != nil {
		if fd := c.decls[fn]; fd != nil {
			body = fd.Body
		}
	}

	if body != nil {
		sig := analyzeBody(info, body)
		// WaitGroup.Add inside the goroutine it accounts: Add and Done on
		// the same WaitGroup at this goroutine's own level.
		for key, pos := range sig.wgAdds {
			if sig.wgDones[key] {
				c.pass.Reportf(pos, "WaitGroup.Add inside the goroutine it accounts: Wait can run before Add; move the Add before the go statement")
			}
		}
		// Join via WaitGroup: Done inside, Add before the spawn.
		for key := range sig.wgDones {
			for _, p := range adds[key] {
				if p < g.Pos() {
					return
				}
			}
		}
		if sig.stops || sig.signals {
			return
		}
		for obj := range sig.refs {
			if deferred[obj] {
				return
			}
		}
	} else {
		// Opaque callee (imported function, method value): accept the
		// weaker external evidence.
		for _, arg := range g.Call.Args {
			if isContextType(info.TypeOf(arg)) {
				return
			}
		}
		if sel, ok := vet.Unparen(g.Call.Fun).(*ast.SelectorExpr); ok {
			if key, ok := vet.KeyOf(info, sel.X); ok && deferred[key.Base] {
				return
			}
		}
	}
	c.pass.Reportf(g.Pos(), "goroutine has no visible join or stop path: give it a WaitGroup (Add before the spawn, Done inside), a context/done channel, a completion send/close, or a deferred teardown on a shared object")
}

// bodySignals is the lifecycle evidence found inside one goroutine body.
type bodySignals struct {
	// stops: the goroutine can be told to stop — select, channel
	// receive, channel range, or a context.Context reference.
	stops bool
	// signals: the goroutine announces completion — send or close.
	signals bool
	// wgAdds/wgDones: WaitGroup calls at this goroutine's level (nested
	// spawned goroutines excluded, deferred literals included).
	wgAdds  map[vet.SelectorKey]token.Pos
	wgDones map[vet.SelectorKey]bool
	// refs: every object the body references, for teardown matching.
	refs map[types.Object]bool
}

func analyzeBody(info *types.Info, body *ast.BlockStmt) *bodySignals {
	sig := &bodySignals{
		wgAdds:  map[vet.SelectorKey]token.Pos{},
		wgDones: map[vet.SelectorKey]bool{},
		refs:    map[types.Object]bool{},
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// A nested spawn is its own goroutine: its body's WaitGroup
			// calls and signals don't govern this one. Its arguments do
			// run here, so keep walking them but skip a literal callee.
			if _, ok := vet.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				for _, arg := range n.Call.Args {
					ast.Inspect(arg, func(m ast.Node) bool { collectLeaf(info, m, sig); return true })
				}
				return false
			}
		case *ast.SelectStmt:
			sig.stops = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				sig.stops = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					sig.stops = true
				}
			}
		case *ast.SendStmt:
			sig.signals = true
		case *ast.CallExpr:
			if id, ok := vet.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, ok := info.ObjectOf(id).(*types.Builtin); ok {
					sig.signals = true
				}
			}
			if key, ok := wgCall(info, n, "Add"); ok {
				sig.wgAdds[key] = n.Pos()
			}
			if key, ok := wgCall(info, n, "Done"); ok {
				sig.wgDones[key] = true
			}
		}
		collectLeaf(info, n, sig)
		return true
	})
	return sig
}

// collectLeaf records identifier references and context-typed values.
func collectLeaf(info *types.Info, n ast.Node, sig *bodySignals) {
	id, ok := n.(*ast.Ident)
	if !ok {
		return
	}
	obj := info.ObjectOf(id)
	if obj == nil {
		return
	}
	sig.refs[obj] = true
	if isContextType(obj.Type()) {
		sig.stops = true
	}
}

// checkTimerLoops reports time.After calls inside for/range bodies.
func checkTimerLoops(pass *vet.Pass) {
	vet.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := vet.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "After" {
			return true
		}
		fn, _ := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true // time.Time.After is a comparison, not a timer
		}
		inLoop := false
		for i := len(stack) - 1; i >= 0; i-- {
			switch stack[i].(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				inLoop = true
			case *ast.FuncLit, *ast.FuncDecl:
				// A literal defined in a loop runs once per call, not per
				// iteration; stop at the function boundary.
				i = -1
			}
			if inLoop || i < 0 {
				break
			}
		}
		if inLoop {
			pass.Reportf(call.Pos(), "time.After in a loop allocates a timer every iteration that lives until it fires; hoist a time.NewTimer or time.NewTicker out of the loop")
		}
		return true
	})
}

// ---- shared small helpers ----

// wgCall decodes a call as a sync.WaitGroup method invocation with the
// given name on a keyable receiver.
func wgCall(info *types.Info, call *ast.CallExpr, name string) (vet.SelectorKey, bool) {
	sel, ok := vet.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return vet.SelectorKey{}, false
	}
	fn, _ := info.ObjectOf(sel.Sel).(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return vet.SelectorKey{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !vet.IsNamed(sig.Recv().Type(), "sync", "WaitGroup") {
		return vet.SelectorKey{}, false
	}
	return vet.KeyOf(info, sel.X)
}

func isContextType(t types.Type) bool {
	return t != nil && vet.IsNamed(t, "context", "Context")
}
