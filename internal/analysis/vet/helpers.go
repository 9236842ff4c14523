package vet

import (
	"go/ast"
	"go/types"
)

// TypeOf returns the static type of e, or nil.
func TypeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Unparen removes any enclosing parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// SameExpr reports whether a and b are structurally the same variable
// reference: the same object for identifiers, or the same selection
// chain (x.f.g) resolving to the same objects at every hop.
func SameExpr(info *types.Info, a, b ast.Expr) bool {
	a, b = Unparen(a), Unparen(b)
	switch ae := a.(type) {
	case *ast.Ident:
		be, ok := b.(*ast.Ident)
		if !ok {
			return false
		}
		ao, bo := info.ObjectOf(ae), info.ObjectOf(be)
		return ao != nil && ao == bo
	case *ast.SelectorExpr:
		be, ok := b.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		ao, bo := info.ObjectOf(ae.Sel), info.ObjectOf(be.Sel)
		return ao != nil && ao == bo && SameExpr(info, ae.X, be.X)
	}
	return false
}

// NilCheckedExpr returns the expression compared against nil when cond
// has the form `x != nil` or `nil != x`, and nil otherwise.
func NilCheckedExpr(info *types.Info, cond ast.Expr) ast.Expr {
	be, ok := Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op.String() != "!=" {
		return nil
	}
	if isNilIdent(info, be.Y) {
		return be.X
	}
	if isNilIdent(info, be.X) {
		return be.Y
	}
	return nil
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

// SelectorKey names an object-rooted selector chain: the root object
// (receiver, local, parameter, or package var) plus the selector path
// below it — `s.sched.mu` keys as {obj(s), "sched.mu"}.
type SelectorKey struct {
	Base types.Object
	Path string
}

// KeyOf resolves an identifier or selector chain to its SelectorKey.
func KeyOf(info *types.Info, e ast.Expr) (SelectorKey, bool) {
	switch e := Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return SelectorKey{}, false
		}
		return SelectorKey{Base: obj}, true
	case *ast.SelectorExpr:
		k, ok := KeyOf(info, e.X)
		if !ok {
			return SelectorKey{}, false
		}
		if k.Path == "" {
			k.Path = e.Sel.Name
		} else {
			k.Path += "." + e.Sel.Name
		}
		return k, true
	}
	return SelectorKey{}, false
}

// InBody reports whether n sits inside the if statement's then-branch.
func InBody(ifs *ast.IfStmt, n ast.Node) bool {
	return ifs.Body != nil && ifs.Body.Pos() <= n.Pos() && n.Pos() < ifs.Body.End()
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package-level function or method), or nil.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}
