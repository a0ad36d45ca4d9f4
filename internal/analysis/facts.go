package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// hotDirective marks a function declaration as a mining hot-path entry
// point:
//
//	// lint:hot
//
// placed in the declaration's doc comment. The facts engine seeds the
// hot set with every annotated function and closes it transitively over
// same-module callees, so annotating the three mining entry points is
// enough to make every helper they reach a hot function too.
const hotDirective = "lint:hot"

// CallFact is one statically-resolved call from a module function to
// another module function. LoopDepth counts the for/range statements
// enclosing the call site within the caller's body (function literals do
// not reset the depth: a closure declared inside a loop is conservatively
// assumed to run inside it, which is exactly how sort.Slice comparators
// and per-item goroutines behave).
type CallFact struct {
	Callee    *types.Func
	LoopDepth int
}

// FuncFacts collects what the facts engine knows about one declared
// function: its AST, its package, and its static module-internal calls.
type FuncFacts struct {
	Decl    *ast.FuncDecl
	PkgPath string
	Calls   []CallFact
}

// AtomicUse records where an address was first handed to a sync/atomic
// function, so a plain access elsewhere can name the conflicting site.
type AtomicUse struct {
	Pos token.Position
}

// Facts is the shared, module-wide fact base computed once per suite run
// and handed to every analyzer through the Pass. It carries the
// intra-module call graph, the lint:hot closure, and the set of
// variables accessed through sync/atomic anywhere in the loaded
// packages. Analyzers that do not need facts simply ignore the field.
type Facts struct {
	ModulePath string

	funcs   map[*types.Func]*FuncFacts
	hot     map[*types.Func]bool
	loopHot map[*types.Func]bool
	atomics map[types.Object]AtomicUse
}

// BuildFacts computes the fact base over the given packages (normally
// every module package the loader has seen). The call graph keeps only
// statically-resolved callees declared inside the module: interface
// method calls and function values are opaque, so hotness never
// propagates through them — a documented soundness limit, not a bug.
func BuildFacts(fset *token.FileSet, modulePath string, pkgs []*Package) *Facts {
	f := &Facts{
		ModulePath: modulePath,
		funcs:      make(map[*types.Func]*FuncFacts),
		hot:        make(map[*types.Func]bool),
		loopHot:    make(map[*types.Func]bool),
		atomics:    make(map[types.Object]AtomicUse),
	}
	var seeds []*types.Func
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ff := &FuncFacts{Decl: fd, PkgPath: pkg.Path}
				f.collectCalls(pkg, fd, ff)
				f.funcs[fn] = ff
				if hasHotDirective(fd) {
					seeds = append(seeds, fn)
				}
			}
			f.collectAtomics(fset, pkg, file)
		}
	}
	f.closeHot(seeds)
	return f
}

// hasHotDirective reports whether the declaration's doc comment carries
// a lint:hot line.
func hasHotDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == hotDirective || strings.HasPrefix(text, hotDirective+" ") {
			return true
		}
	}
	return false
}

// collectCalls records every statically-resolved call to a module
// function inside fd's body, with the enclosing loop depth.
func (f *Facts) collectCalls(pkg *Package, fd *ast.FuncDecl, ff *FuncFacts) {
	loops := loopRanges(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := staticCallee(pkg.Info, call); callee != nil && f.inModule(callee) {
			ff.Calls = append(ff.Calls, CallFact{Callee: callee, LoopDepth: loopDepthAt(loops, call.Pos())})
		}
		return true
	})
}

// posRange is the source extent of one loop statement.
type posRange struct{ from, to token.Pos }

// loopRanges collects the extents of every for/range statement under
// root. Function literals do not cut the nesting: a closure declared
// inside a loop is conservatively assumed to execute inside it, which
// is exactly how sort comparators and per-item goroutines behave.
func loopRanges(root ast.Node) []posRange {
	var out []posRange
	ast.Inspect(root, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			out = append(out, posRange{n.Pos(), n.End()})
		}
		return true
	})
	return out
}

// loopDepthAt counts the loops whose extent contains pos.
func loopDepthAt(loops []posRange, pos token.Pos) int {
	depth := 0
	for _, r := range loops {
		if r.from <= pos && pos < r.to {
			depth++
		}
	}
	return depth
}

// inModule reports whether fn is declared in a package of this module.
func (f *Facts) inModule(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == f.ModulePath || strings.HasPrefix(path, f.ModulePath+"/")
}

// staticCallee resolves a call expression to the named function or
// method it invokes, or nil for builtins, type conversions, function
// values, and interface method calls.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		// Interface method calls resolve to *types.Func too, but their
		// receiver is an interface: exclude them, the target is dynamic.
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	// A method of an instantiated generic type is its own object; the
	// call graph is keyed by declarations, so map it back to its origin.
	return fn.Origin()
}

// closeHot seeds the hot set and computes its transitive closure over
// module callees, then derives the loop-hot set: a function called from
// inside a loop of a hot function — or called, at any depth, from a
// loop-hot function — has its whole body treated as running inside a
// hot loop.
func (f *Facts) closeHot(seeds []*types.Func) {
	var work []*types.Func
	for _, fn := range seeds {
		if !f.hot[fn] {
			f.hot[fn] = true
			work = append(work, fn)
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		ff := f.funcs[fn]
		if ff == nil {
			continue
		}
		for _, c := range ff.Calls {
			if !f.hot[c.Callee] {
				f.hot[c.Callee] = true
				work = append(work, c.Callee)
			}
		}
	}
	// Loop-hot propagation: seed from in-loop calls of hot functions,
	// then close over all calls of loop-hot functions.
	for fn := range f.hot {
		ff := f.funcs[fn]
		if ff == nil {
			continue
		}
		for _, c := range ff.Calls {
			if c.LoopDepth > 0 && !f.loopHot[c.Callee] {
				f.loopHot[c.Callee] = true
				work = append(work, c.Callee)
			}
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		ff := f.funcs[fn]
		if ff == nil {
			continue
		}
		for _, c := range ff.Calls {
			if !f.loopHot[c.Callee] {
				f.loopHot[c.Callee] = true
				work = append(work, c.Callee)
			}
		}
	}
}

// collectAtomics records every variable whose address is passed to a
// package-level sync/atomic function in file. Only plain pointer-based
// atomics matter: the typed wrappers (atomic.Int64 &c.) make mixed
// access impossible by construction, and their methods are excluded
// here too — atomic.Pointer[T].Store(&v) publishes v's address as a
// value, it does not access v through the atomic API, so plain writes
// to v before publication are the normal init-then-publish idiom.
func (f *Facts) collectAtomics(fset *token.FileSet, pkg *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := staticCallee(pkg.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true
		}
		unary, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
		if !ok || unary.Op != token.AND {
			return true
		}
		if obj := addressedObject(pkg.Info, unary.X); obj != nil {
			if _, seen := f.atomics[obj]; !seen {
				f.atomics[obj] = AtomicUse{Pos: fset.Position(unary.Pos())}
			}
		}
		return true
	})
}

// addressedObject resolves &expr's operand to the variable (or struct
// field) it names; index expressions and other derived addresses return
// nil — per-element atomics cannot be tracked by object identity.
func addressedObject(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := info.ObjectOf(x.Sel).(*types.Var); ok {
			return v
		}
	}
	return nil
}

// IsHot reports whether fn is in the lint:hot closure.
func (f *Facts) IsHot(fn *types.Func) bool { return f != nil && f.hot[fn] }

// IsLoopHot reports whether fn's whole body runs inside a hot loop.
func (f *Facts) IsLoopHot(fn *types.Func) bool { return f != nil && f.loopHot[fn] }

// AtomicUseOf returns where obj was first passed to sync/atomic, if it
// ever was.
func (f *Facts) AtomicUseOf(obj types.Object) (AtomicUse, bool) {
	if f == nil {
		return AtomicUse{}, false
	}
	u, ok := f.atomics[obj]
	return u, ok
}

// FuncFactsOf returns the recorded facts for fn, or nil.
func (f *Facts) FuncFactsOf(fn *types.Func) *FuncFacts {
	if f == nil {
		return nil
	}
	return f.funcs[fn]
}

// HotFuncNames returns the sorted full names of the hot closure —
// exposed for the facts-engine unit tests.
func (f *Facts) HotFuncNames() []string {
	return sortedFuncNames(f.hot)
}

// LoopHotFuncNames returns the sorted full names of the loop-hot set.
func (f *Facts) LoopHotFuncNames() []string {
	return sortedFuncNames(f.loopHot)
}

func sortedFuncNames(set map[*types.Func]bool) []string {
	out := make([]string, 0, len(set))
	for fn := range set {
		out = append(out, fn.FullName())
	}
	sort.Strings(out)
	return out
}
