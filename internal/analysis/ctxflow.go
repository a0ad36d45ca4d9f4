package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context threading through the library packages. The
// job engine's cancellation story (a canceled job stops actual mining
// work, not just bookkeeping) only holds if every layer passes the
// caller's context down instead of conjuring a fresh one, so in
// internal/* packages:
//
//  1. context.Background() and context.TODO() are flagged wherever they
//     appear — a library has a caller, and the caller owns the context;
//  2. an exported function without a context parameter that calls a
//     context-taking callee is flagged, unless the context argument is
//     derived from one of the function's own parameters (r.Context()
//     on an *http.Request parameter is threading, s.ctx from a struct
//     field is storage — the antipattern);
//  3. an exported function without a context parameter that calls
//     known blocking stdlib operations (time.Sleep, net dials, the
//     package-level net/http helpers) is flagged — those waits are
//     exactly what a caller needs to be able to cancel.
//
// Documented compatibility shims (core.Explore over ExploreContext) and
// process-lifetime roots carry lint:ignore justifications.
type CtxFlow struct{}

// Name implements Analyzer.
func (CtxFlow) Name() string { return "ctxflow" }

// Doc implements Analyzer.
func (CtxFlow) Doc() string {
	return "flags context.Background()/TODO() in internal packages and exported functions that call " +
		"context-taking callees or blocking stdlib I/O without accepting and threading a context"
}

// blockingCalls are package-level stdlib calls that block without a
// context and have context-aware alternatives. File I/O is deliberately
// absent: Go file operations are not context-cancelable, so demanding a
// context there would be theater.
var blockingCalls = map[string]map[string]bool{
	"time":     {"Sleep": true},
	"net":      {"Dial": true, "DialTimeout": true, "Listen": true, "LookupHost": true, "LookupAddr": true, "LookupIP": true},
	"net/http": {"Get": true, "Head": true, "Post": true, "PostForm": true},
}

// Run implements Analyzer.
func (c CtxFlow) Run(pass *Pass) {
	if pass.Pkg == nil || pass.Pkg.Name() == "main" || !isInternalPath(pass.Path) {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(pass, fd)
		}
	}
}

// checkFunc applies all three rules to one declared function.
func (c CtxFlow) checkFunc(pass *Pass, fd *ast.FuncDecl) {
	ownObjs, hasCtx := funcOwnObjects(pass, fd)
	checkThreading := exportedAPI(fd) && !hasCtx

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name, isPkgCall := pkgLevelCallee(pass, call)

		// Rule 1: no conjured contexts anywhere in library code.
		if isPkgCall && pkg == "context" && (name == "Background" || name == "TODO") {
			pass.Reportf(call.Pos(), "context.%s() in internal package: libraries thread the caller's context, they do not conjure one", name)
			return true
		}
		if !checkThreading {
			return true
		}

		// Rule 3: blocking stdlib calls need a cancelable caller.
		if isPkgCall {
			if fns, ok := blockingCalls[pkg]; ok && fns[name] {
				pass.Reportf(call.Pos(), "exported %s calls blocking %s.%s but accepts no context.Context; accept one and use a context-aware wait", fd.Name.Name, pkg, name)
				return true
			}
		}

		// Rule 2: calling a context-taking callee from a context-less
		// exported function.
		idx := ctxParamIndex(calleeSignature(pass, call))
		if idx < 0 || idx >= len(call.Args) {
			return true
		}
		arg := ast.Unparen(call.Args[idx])
		if isConjuredCtx(pass, arg) {
			return true // rule 1 already reported the conjured context itself
		}
		if !ctxDerivedFrom(pass, arg, ownObjs) {
			pass.Reportf(call.Pos(), "exported %s calls context-taking %s but accepts no context.Context; thread the caller's context through %s", fd.Name.Name, calleeLabel(call), fd.Name.Name)
		}
		return true
	})
}

// funcOwnObjects collects the function's parameter and receiver
// objects and reports whether any parameter is a context.Context.
func funcOwnObjects(pass *Pass, fd *ast.FuncDecl) (map[types.Object]bool, bool) {
	own := make(map[types.Object]bool)
	hasCtx := false
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.Info.ObjectOf(name); obj != nil {
					own[obj] = true
					if isContextType(obj.Type()) {
						hasCtx = true
					}
				}
			}
			if len(f.Names) == 0 { // unnamed parameter still satisfies "accepts a context"
				if t := pass.TypeOf(f.Type); isContextType(t) {
					hasCtx = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	return own, hasCtx
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// calleeSignature returns the called function's signature, or nil.
func calleeSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	t := pass.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// ctxParamIndex returns the index of the first context.Context
// parameter of sig, or -1.
func ctxParamIndex(sig *types.Signature) int {
	if sig == nil {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

// isConjuredCtx reports whether e is a direct context.Background() or
// context.TODO() call.
func isConjuredCtx(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	pkg, name, ok := pkgLevelCallee(pass, call)
	return ok && pkg == "context" && (name == "Background" || name == "TODO")
}

// ctxDerivedFrom reports whether the context expression is derived from
// one of the function's own parameters: the parameter itself, a method
// call rooted at a parameter (r.Context()), or a context.With* call
// whose parent is itself derived. A struct-field context (s.ctx) is
// storage, not derivation, and returns false.
func ctxDerivedFrom(pass *Pass, e ast.Expr, own map[types.Object]bool) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return own[pass.Info.ObjectOf(x)]
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			// context.With*(parent, ...): derived iff any argument is.
			if pkg, _, ok := pkgLevelCallee(pass, x); ok && pkg == "context" {
				for _, arg := range x.Args {
					if ctxDerivedFrom(pass, arg, own) {
						return true
					}
				}
				return false
			}
			// Method call: derived iff its receiver chain roots at an own
			// object (r.Context() on a request parameter).
			return ctxDerivedFrom(pass, sel.X, own)
		}
		return false
	case *ast.SelectorExpr:
		// Plain field access (s.ctx): stored context, not derivation.
		return false
	}
	return false
}

// calleeLabel renders a short name for the called function for use in
// diagnostics.
func calleeLabel(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "callee"
}
