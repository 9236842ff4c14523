// Package lockdiscipline statically enforces the repository's mutex
// contracts. The detection pipeline's determinism guarantees — the
// bit-identical parallel compare loop, the WAL snapshot barrier, the
// fused-verdict equality matrices — all rest on struct fields being
// touched only under their mutex; until now that discipline was checked
// only dynamically (-race, chaos seeds). The analyzer makes it a vet
// gate via two annotations:
//
//	type Monitor struct {
//		mu     sync.Mutex
//		series map[ID]*Series // voiceprintvet:guardedby mu
//	}
//
//	// voiceprintvet:holds mu
//	func (m *Monitor) evictLocked() { ... }
//
// Every read or write of a guardedby-annotated field must be dominated,
// in its enclosing block sequence, by a Lock (writes) or RLock (reads)
// of the named sibling mutex — or occur inside a function carrying the
// matching holds precondition, whose call sites are checked the same
// way. On top of the guarded-field check the analyzer reports lock-
// upgrade deadlocks (Lock while RLock is held), defers that lock
// instead of unlocking, and functions that lock a mutex and never
// release it on any path. Copies of a struct that holds a mutex are
// go vet's copylocks check, not this one.
//
// Accesses through a variable freshly allocated in the same function
// (&T{...}, T{}, new(T), var t T) are exempt: the object cannot be
// shared yet, which is exactly the constructor pattern. Function
// literals are analyzed with an empty lock state — a closure may run on
// another goroutine, so it cannot inherit its definer's locks; take the
// lock inside the literal or call a holds-annotated helper from a
// context that provably holds it.
//
// Each package is checked on its own, so an annotation is enforced only
// inside the package that declares it. The analyzer therefore reports a
// guardedby on an exported field and a holds on an exported method:
// another package could reach either without any check.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"voiceprint/internal/analysis/vet"
)

// Analyzer is the lock-discipline checker.
var Analyzer = &vet.Analyzer{
	Name: "lockdiscipline",
	Doc: "enforce voiceprintvet:guardedby / voiceprintvet:holds mutex contracts\n\n" +
		"Fields annotated `voiceprintvet:guardedby mu` may only be accessed under " +
		"a dominating mu.Lock/RLock or inside a `voiceprintvet:holds mu` function; " +
		"writes need the write lock. Also reports RLock-to-Lock upgrades, defer'd " +
		"Lock, Lock without any unlock, and annotations on exported names.",
	Run: run,
}

const (
	guardedDirective = "voiceprintvet:guardedby"
	holdsDirective   = "voiceprintvet:holds"
)

// lockMode is how strongly a mutex is held.
type lockMode int

const (
	heldNone lockMode = iota
	heldRead
	heldWrite
)

type analysis struct {
	pass *vet.Pass
	// guarded maps in-package field objects to their mutex field name.
	guarded map[types.Object]string
	// holds maps in-package functions to their required mutex fields.
	holds map[*types.Func][]string
}

func run(pass *vet.Pass) error {
	a := &analysis{
		pass:    pass,
		guarded: make(map[types.Object]string),
		holds:   make(map[*types.Func][]string),
	}
	a.collectAnnotations()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.checkPairing(fd.Name.Name, fd.Body)
			a.block(fd.Body.List, a.initialState(fd), a.freshLocals(fd.Body))
		}
	}
	return nil
}

// ---- annotation collection ----

// directiveArg returns the argument of a `voiceprintvet:<directive> arg`
// comment in any of the groups, or "". Only the first token after the
// directive counts, so trailing prose doesn't bleed into the mutex name.
func directiveArg(groups []*ast.CommentGroup, directive string) string {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, directive) {
				continue
			}
			rest := strings.TrimPrefix(text, directive)
			if fields := strings.Fields(rest); len(fields) > 0 {
				return fields[0]
			}
			return ""
		}
	}
	return ""
}

func (a *analysis) collectAnnotations() {
	for _, f := range a.pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					a.collectStruct(ts, st)
				}
			case *ast.FuncDecl:
				arg := directiveArg([]*ast.CommentGroup{d.Doc}, holdsDirective)
				if arg != "" {
					a.collectHolds(d, arg)
				}
			}
		}
	}
}

func (a *analysis) collectStruct(ts *ast.TypeSpec, st *ast.StructType) {
	info := a.pass.TypesInfo
	mutexFields := make(map[string]bool)
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil && isMutexType(obj.Type()) {
				mutexFields[name.Name] = true
			}
		}
	}
	for _, field := range st.Fields.List {
		arg := directiveArg([]*ast.CommentGroup{field.Doc, field.Comment}, guardedDirective)
		if arg == "" {
			continue
		}
		if len(field.Names) == 0 {
			a.pass.Reportf(field.Pos(), "voiceprintvet:guardedby on an embedded field is not supported")
			continue
		}
		if !mutexFields[arg] {
			a.pass.Reportf(field.Pos(), "voiceprintvet:guardedby %s: struct %s has no sync.Mutex or sync.RWMutex field %q", arg, ts.Name.Name, arg)
			continue
		}
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			if isMutexType(obj.Type()) {
				a.pass.Reportf(field.Pos(), "voiceprintvet:guardedby on mutex field %s: a mutex does not guard itself", name.Name)
				continue
			}
			if name.IsExported() {
				a.pass.Reportf(field.Pos(), "voiceprintvet:guardedby on exported field %s.%s: other packages could access it unchecked; unexport it", ts.Name.Name, name.Name)
			}
			a.guarded[obj] = arg
		}
	}
}

func (a *analysis) collectHolds(d *ast.FuncDecl, arg string) {
	fn, _ := a.pass.TypesInfo.Defs[d.Name].(*types.Func)
	if fn == nil {
		return
	}
	if d.Recv == nil || len(d.Recv.List) == 0 {
		a.pass.Reportf(d.Pos(), "voiceprintvet:holds on %s: only methods can hold a receiver mutex", d.Name.Name)
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	recvType := baseNamed(sig.Recv().Type())
	if recvType == nil {
		a.pass.Reportf(d.Pos(), "voiceprintvet:holds on %s: receiver is not a named struct", d.Name.Name)
		return
	}
	if fn.Exported() {
		a.pass.Reportf(d.Pos(), "voiceprintvet:holds on exported method %s.%s: other packages could call it unchecked; unexport it", recvType.Obj().Name(), fn.Name())
	}
	var mus []string
	for _, mu := range strings.Split(arg, ",") {
		mu = strings.TrimSpace(mu)
		if mu == "" {
			continue
		}
		if !structHasMutexField(recvType, mu) {
			a.pass.Reportf(d.Pos(), "voiceprintvet:holds %s: receiver struct %s has no sync.Mutex or sync.RWMutex field %q", mu, recvType.Obj().Name(), mu)
			continue
		}
		mus = append(mus, mu)
	}
	if len(mus) == 0 {
		return
	}
	a.holds[fn] = mus
}

// ---- per-function lock-state analysis ----

// initialState seeds a method's lock state from its holds annotation:
// the precondition means the caller already took the receiver's mutex
// exclusively.
func (a *analysis) initialState(fd *ast.FuncDecl) map[vet.SelectorKey]lockMode {
	st := make(map[vet.SelectorKey]lockMode)
	fn, _ := a.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return st
	}
	mus := a.holds[fn]
	if len(mus) == 0 || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return st
	}
	recvObj := a.pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	if recvObj == nil {
		return st
	}
	for _, mu := range mus {
		st[vet.SelectorKey{Base: recvObj, Path: mu}] = heldWrite
	}
	return st
}

// freshLocals collects objects that are provably this function's own
// fresh allocations — `x := &T{...}`, `x := T{}`, `x := new(T)`,
// `var x T` — whose guarded fields cannot be shared with another
// goroutine yet.
func (a *analysis) freshLocals(body *ast.BlockStmt) map[types.Object]bool {
	info := a.pass.TypesInfo
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literals get their own analysis
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if obj := info.Defs[id]; obj != nil && isFreshExpr(info, n.Rhs[i]) {
					fresh[obj] = true
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				// `var x T`: zero value on the stack, unshared.
				for _, id := range n.Names {
					if obj := info.Defs[id]; obj != nil {
						fresh[obj] = true
					}
				}
				return true
			}
			if len(n.Values) != len(n.Names) {
				return true
			}
			for i, id := range n.Names {
				if obj := info.Defs[id]; obj != nil && isFreshExpr(info, n.Values[i]) {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

// isFreshExpr reports whether e evaluates to a freshly allocated value:
// a composite literal, its address, or new(T).
func isFreshExpr(info *types.Info, e ast.Expr) bool {
	switch e := vet.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := vet.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := vet.Unparen(e.Fun).(*ast.Ident)
		if !ok || id.Name != "new" {
			return false
		}
		_, isBuiltin := info.ObjectOf(id).(*types.Builtin)
		return isBuiltin
	}
	return false
}

// block checks a statement list in order: each statement's accesses are
// judged against the lock state accumulated from its predecessors, then
// its own lock effects are applied for the statements after it.
func (a *analysis) block(list []ast.Stmt, st map[vet.SelectorKey]lockMode, fresh map[types.Object]bool) {
	for _, s := range list {
		a.checkStmt(s, st, fresh)
		a.applyEffect(s, st)
	}
}

// checkStmt validates the accesses inside one statement, recursing into
// nested blocks with a copy of the current state so a branch's lock
// operations don't leak into its siblings.
func (a *analysis) checkStmt(s ast.Stmt, st map[vet.SelectorKey]lockMode, fresh map[types.Object]bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		a.block(s.List, copyState(st), fresh)
	case *ast.IfStmt:
		inner := copyState(st)
		if s.Init != nil {
			a.checkStmt(s.Init, inner, fresh)
			a.applyEffect(s.Init, inner)
		}
		a.checkNode(s.Cond, inner, fresh)
		a.block(s.Body.List, copyState(inner), fresh)
		if s.Else != nil {
			a.checkStmt(s.Else, copyState(inner), fresh)
		}
	case *ast.ForStmt:
		inner := copyState(st)
		if s.Init != nil {
			a.checkStmt(s.Init, inner, fresh)
			a.applyEffect(s.Init, inner)
		}
		if s.Cond != nil {
			a.checkNode(s.Cond, inner, fresh)
		}
		if s.Post != nil {
			a.checkStmt(s.Post, inner, fresh)
		}
		a.block(s.Body.List, copyState(inner), fresh)
	case *ast.RangeStmt:
		inner := copyState(st)
		a.checkNode(s.X, inner, fresh)
		if s.Key != nil {
			a.checkNode(s.Key, inner, fresh)
		}
		if s.Value != nil {
			a.checkNode(s.Value, inner, fresh)
		}
		a.block(s.Body.List, copyState(inner), fresh)
	case *ast.SwitchStmt:
		inner := copyState(st)
		if s.Init != nil {
			a.checkStmt(s.Init, inner, fresh)
			a.applyEffect(s.Init, inner)
		}
		if s.Tag != nil {
			a.checkNode(s.Tag, inner, fresh)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				a.checkNode(e, inner, fresh)
			}
			a.block(cc.Body, copyState(inner), fresh)
		}
	case *ast.TypeSwitchStmt:
		inner := copyState(st)
		if s.Init != nil {
			a.checkStmt(s.Init, inner, fresh)
			a.applyEffect(s.Init, inner)
		}
		a.checkStmt(s.Assign, inner, fresh)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			a.block(cc.Body, copyState(inner), fresh)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			inner := copyState(st)
			if cc.Comm != nil {
				a.checkStmt(cc.Comm, inner, fresh)
				a.applyEffect(cc.Comm, inner)
			}
			a.block(cc.Body, inner, fresh)
		}
	case *ast.LabeledStmt:
		a.checkStmt(s.Stmt, st, fresh)
	case *ast.DeferStmt:
		if op, key, ok := lockCall(a.pass.TypesInfo, s.Call); ok {
			if op == "Lock" || op == "RLock" {
				a.pass.Reportf(s.Pos(), "defer %s.%s() acquires the lock at function exit; defer the unlock instead", keyString(key), op)
			}
			return
		}
		a.checkNode(s.Call, st, fresh)
	default:
		// Leaf statements — assignments, expression statements, returns,
		// sends, go statements: walk the whole node so write detection
		// sees the statement as ancestor context.
		a.checkNode(s, st, fresh)
	}
}

// checkNode walks one leaf statement or expression with an ancestor
// stack, checking guarded accesses and holds-call preconditions against
// the lock state. Nested function literals are analyzed from scratch
// with an empty state — a closure may run on another goroutine, so it
// cannot inherit its definer's locks.
func (a *analysis) checkNode(root ast.Node, st map[vet.SelectorKey]lockMode, fresh map[types.Object]bool) {
	if root == nil {
		return
	}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			a.checkPairing("function literal", lit.Body)
			a.block(lit.Body.List, make(map[vet.SelectorKey]lockMode), a.freshLocals(lit.Body))
			return false
		}
		switch e := n.(type) {
		case *ast.SelectorExpr:
			a.checkGuardedAccess(e, stack, st, fresh)
		case *ast.CallExpr:
			a.checkHoldsCall(e, st, fresh)
		}
		stack = append(stack, n)
		return true
	})
}

// checkGuardedAccess judges one field selector against the lock state.
func (a *analysis) checkGuardedAccess(sel *ast.SelectorExpr, stack []ast.Node, st map[vet.SelectorKey]lockMode, fresh map[types.Object]bool) {
	mu := a.guarded[a.pass.TypesInfo.ObjectOf(sel.Sel)]
	if mu == "" {
		return
	}
	baseKey, ok := vet.KeyOf(a.pass.TypesInfo, sel.X)
	if !ok {
		return // base is a call result or other unkeyable expression
	}
	if fresh[baseKey.Base] {
		return
	}
	need := baseKey
	if need.Path == "" {
		need.Path = mu
	} else {
		need.Path += "." + mu
	}
	write := isWriteAccess(sel, stack, a.pass.TypesInfo)
	switch mode := st[need]; {
	case mode == heldNone:
		a.pass.Reportf(sel.Sel.Pos(), "%s is guarded by %s, which is not held here (no dominating lock in this block; if every caller locks, annotate the function voiceprintvet:holds %s)", exprString(sel), keyString(need), mu)
	case write && mode == heldRead:
		a.pass.Reportf(sel.Sel.Pos(), "write to %s while %s is held only for reading (RLock); writes need the exclusive Lock", exprString(sel), keyString(need))
	}
}

// checkHoldsCall enforces a callee's holds precondition at its call
// site.
func (a *analysis) checkHoldsCall(call *ast.CallExpr, st map[vet.SelectorKey]lockMode, fresh map[types.Object]bool) {
	fn := vet.CalleeFunc(a.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	mus := a.holds[fn]
	if len(mus) == 0 {
		return
	}
	sel, ok := vet.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		a.pass.Reportf(call.Pos(), "call to %s through a method value: its voiceprintvet:holds %s precondition cannot be verified", fn.Name(), strings.Join(mus, ","))
		return
	}
	baseKey, ok := vet.KeyOf(a.pass.TypesInfo, sel.X)
	if !ok {
		return
	}
	if fresh[baseKey.Base] {
		return
	}
	for _, mu := range mus {
		need := baseKey
		if need.Path == "" {
			need.Path = mu
		} else {
			need.Path += "." + mu
		}
		if st[need] != heldWrite {
			a.pass.Reportf(call.Pos(), "call to %s requires holding %s exclusively (voiceprintvet:holds %s)", fn.Name(), keyString(need), mu)
		}
	}
}

// applyEffect updates the lock state for the statements that follow s
// in the same block.
func (a *analysis) applyEffect(s ast.Stmt, st map[vet.SelectorKey]lockMode) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return
		}
		op, key, ok := lockCall(a.pass.TypesInfo, call)
		if !ok {
			return
		}
		switch op {
		case "Lock":
			switch st[key] {
			case heldRead:
				a.pass.Reportf(s.Pos(), "%s.Lock() while %s.RLock() is held: a read-to-write upgrade deadlocks", keyString(key), keyString(key))
			case heldWrite:
				a.pass.Reportf(s.Pos(), "%s.Lock() while %s is already held: self-deadlock", keyString(key), keyString(key))
			}
			st[key] = heldWrite
		case "RLock":
			if st[key] == heldWrite {
				a.pass.Reportf(s.Pos(), "%s.RLock() while %s.Lock() is held: sync.RWMutex is not reentrant", keyString(key), keyString(key))
			}
			st[key] = heldRead
		case "Unlock", "RUnlock":
			delete(st, key)
		}
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held for the rest of the
		// function; a deferred Lock was already reported in checkStmt.
	default:
		// Compound statements: a branch may release a lock taken above.
		// A nested unlock on a fall-through path clears the state
		// conservatively; one in a terminating branch (its block ends in
		// return/goto/panic) does not — that is the
		// `if bad { mu.Unlock(); return err }` early-exit idiom. Nested
		// Locks never establish domination for statements after the
		// compound — only same-level Locks do.
		if isCompound(s) {
			a.applyNestedUnlocks(s, st)
		}
	}
}

func isCompound(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
		*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.BlockStmt, *ast.LabeledStmt:
		return true
	}
	return false
}

// applyNestedUnlocks scans a compound statement for mutex releases that
// can reach its fall-through path.
func (a *analysis) applyNestedUnlocks(s ast.Stmt, st map[vet.SelectorKey]lockMode) {
	info := a.pass.TypesInfo
	// lists tracks, per ancestor, the statement list it contributes (nil
	// for non-block ancestors), so an unlock can find its innermost
	// enclosing statement list and ask whether that branch terminates.
	var lists [][]ast.Stmt
	ast.Inspect(s, func(n ast.Node) bool {
		if n == nil {
			lists = lists[:len(lists)-1]
			return true
		}
		switch n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		}
		var list []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if op, key, ok := lockCall(info, call); ok && (op == "Unlock" || op == "RUnlock") {
				terminates := false
				for i := len(lists) - 1; i >= 0; i-- {
					if l := lists[i]; l != nil {
						terminates = len(l) > 0 && isTerminator(l[len(l)-1])
						break
					}
				}
				if !terminates {
					delete(st, key)
				}
			}
		}
		lists = append(lists, list)
		return true
	})
}

// isTerminator reports whether the statement unconditionally leaves the
// function.
func isTerminator(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := vet.Unparen(call.Fun).(*ast.Ident); ok {
				return id.Name == "panic"
			}
		}
	}
	return false
}

// checkPairing reports mutexes a function locks but never releases on
// any path — neither inline nor deferred. Lock helpers that deliberately
// hand a held mutex to their caller (paired Begin/End APIs) are the
// suppress-with-reason case.
func (a *analysis) checkPairing(name string, body *ast.BlockStmt) {
	info := a.pass.TypesInfo
	// A lock is paired by mode: Lock needs Unlock and RLock needs
	// RUnlock, so an RLock/RUnlock pair elsewhere in the function does
	// not excuse a Lock that is never unlocked.
	type hold struct {
		key  vet.SelectorKey
		read bool
	}
	acquired := make(map[hold]token.Pos)
	var order []hold
	released := make(map[hold]bool)
	release := func(op string, key vet.SelectorKey) {
		switch op {
		case "Unlock":
			released[hold{key, false}] = true
		case "RUnlock":
			released[hold{key, true}] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own pairing scope
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			// A deferred unlock releases; a deferred Lock is reported as
			// its own bug by checkStmt, not double-counted here.
			if op, key, ok := lockCall(info, d.Call); ok {
				release(op, key)
			}
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, key, ok := lockCall(info, call)
		if !ok {
			return true
		}
		switch op {
		case "Lock", "RLock":
			h := hold{key, op == "RLock"}
			if _, dup := acquired[h]; !dup {
				acquired[h] = call.Pos()
				order = append(order, h)
			}
		default:
			release(op, key)
		}
		return true
	})
	for _, h := range order {
		if !released[h] {
			op, unlock := "Lock", "Unlock"
			if h.read {
				op, unlock = "RLock", "RUnlock"
			}
			a.pass.Reportf(acquired[h], "%s.%s() in %s with no %s anywhere in the function; unlock it, defer the unlock, or suppress with a reason if the lock is deliberately handed to the caller", keyString(h.key), op, name, unlock)
		}
	}
}

// ---- helpers ----

func copyState(st map[vet.SelectorKey]lockMode) map[vet.SelectorKey]lockMode {
	cp := make(map[vet.SelectorKey]lockMode, len(st))
	for k, v := range st {
		cp[k] = v
	}
	return cp
}

// lockCall decodes a call as (op, mutexKey) when it invokes a
// sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock method on a keyable
// expression.
func lockCall(info *types.Info, call *ast.CallExpr) (string, vet.SelectorKey, bool) {
	sel, ok := vet.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", vet.SelectorKey{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", vet.SelectorKey{}, false
	}
	fn, _ := info.ObjectOf(sel.Sel).(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", vet.SelectorKey{}, false
	}
	key, ok := vet.KeyOf(info, sel.X)
	if !ok {
		return "", vet.SelectorKey{}, false
	}
	return sel.Sel.Name, key, true
}

func keyString(k vet.SelectorKey) string {
	name := "?"
	if k.Base != nil {
		name = k.Base.Name()
	}
	if k.Path == "" {
		return name
	}
	return name + "." + k.Path
}

// exprString renders a selector chain for diagnostics.
func exprString(e ast.Expr) string {
	switch e := vet.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return "…"
	}
}

// isWriteAccess reports whether the selector — whose ancestors, nearest
// last, are in stack — is written: assignment target, ++/--, address
// taken, or mutated by builtin delete/clear.
func isWriteAccess(sel *ast.SelectorExpr, stack []ast.Node, info *types.Info) bool {
	var cur ast.Node = sel
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
		case *ast.IndexExpr:
			if p.X != cur {
				return false
			}
			cur = p
		case *ast.SliceExpr:
			if p.X != cur {
				return false
			}
			cur = p
		case *ast.SelectorExpr:
			// A deeper field through the guarded field: x.guarded.sub = v
			// writes through guarded storage.
			if p.X != cur {
				return false
			}
			cur = p
		case *ast.StarExpr:
			if p.X != cur {
				return false
			}
			cur = p
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == cur {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == cur
		case *ast.UnaryExpr:
			return p.Op == token.AND && p.X == cur
		case *ast.CallExpr:
			id, ok := vet.Unparen(p.Fun).(*ast.Ident)
			if !ok {
				return false
			}
			if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); !isBuiltin {
				return false
			}
			return (id.Name == "delete" || id.Name == "clear") && len(p.Args) > 0 && p.Args[0] == cur
		default:
			return false
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	return vet.IsNamed(t, "sync", "Mutex") || vet.IsNamed(t, "sync", "RWMutex")
}

// baseNamed unwraps a pointer to its named element type, or nil.
func baseNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func structHasMutexField(named *types.Named, name string) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == name && isMutexType(f.Type()) {
			return true
		}
	}
	return false
}
