package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags heap allocations reachable inside the loops of the
// mining hot path. The hot path is declared, not guessed: a
// `// lint:hot` directive on a function's doc comment seeds the facts
// engine's hot set, which closes transitively over same-module callees.
// Within a hot function, every allocation site lexically inside a
// for/range statement is flagged; a function called from inside such a
// loop (directly or transitively) is "loop-hot" and has its whole body
// treated as running inside a hot loop.
//
// Flagged allocation kinds: make, new, composite literals that reach
// the heap (&T{...}, slice and map literals), growing append (appends
// into provably reused or capacity-preallocated buffers are exempt —
// a `make` with an explicit capacity or a `buf = buf[:0]` reset in the
// same function), string concatenation, string<->[]byte/[]rune
// conversions (except string(b) of a []byte as a comparison operand or
// a map lookup key, which the compiler performs without a copy), fmt.*
// calls (interface boxing), and function literals (closure capture).
// Allocations that only feed a panic call are exempt: a death path
// runs at most once per process, so formatting the panic message is not
// a steady-state allocation. The zero-allocation contract these checks
// enforce is locked in by the testing.AllocsPerRun guards in
// internal/fpm.
type HotAlloc struct{}

// Name implements Analyzer.
func (HotAlloc) Name() string { return "hotalloc" }

// Doc implements Analyzer.
func (HotAlloc) Doc() string {
	return "flags heap allocations (make/new/composite literals/growing append/string concatenation/" +
		"fmt boxing/closures) inside loops of functions on the lint:hot closure; " +
		"preallocated and explicitly reused buffers are exempt"
}

// Run implements Analyzer.
func (h HotAlloc) Run(pass *Pass) {
	if pass.Facts == nil {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			hot, loopHot := pass.Facts.IsHot(fn), pass.Facts.IsLoopHot(fn)
			if !hot && !loopHot {
				continue
			}
			h.checkFunc(pass, fd, loopHot)
		}
	}
}

// checkFunc walks one hot function body and reports in-loop allocation
// sites. When wholeBody is true the entire body counts as inside a hot
// loop (the function is loop-hot).
func (h HotAlloc) checkFunc(pass *Pass, fd *ast.FuncDecl, wholeBody bool) {
	loops := loopRanges(fd.Body)
	death := panicArgRanges(pass, fd.Body)
	reused := reusedBuffers(pass, fd)
	inPlace := inPlaceConversions(pass, fd.Body)
	name := fd.Name.Name
	consumed := make(map[*ast.CompositeLit]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		inLoop := wholeBody || loopDepthAt(loops, n.Pos()) > 0
		if !inLoop || loopDepthAt(death, n.Pos()) > 0 {
			return true
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if !inPlace[x] {
				h.checkCall(pass, x, name, reused)
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					markConsumed(lit, consumed)
					pass.Reportf(x.Pos(), "hot-loop allocation in %s: &composite literal escapes to the heap; allocate from a pooled arena instead", name)
				}
			}
		case *ast.CompositeLit:
			if consumed[x] {
				return true
			}
			if t := pass.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					markConsumed(x, consumed)
					pass.Reportf(x.Pos(), "hot-loop allocation in %s: %s literal allocates its backing store; hoist it out of the loop or reuse a buffer", name, kindOf(t))
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(pass.TypeOf(x)) {
				pass.Reportf(x.Pos(), "hot-loop allocation in %s: string concatenation allocates; build into a reused []byte instead", name)
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isString(pass.TypeOf(x.Lhs[0])) {
				pass.Reportf(x.Pos(), "hot-loop allocation in %s: string += allocates; build into a reused []byte instead", name)
			}
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "hot-loop allocation in %s: function literal allocates a closure per iteration; hoist it or use a named function", name)
		}
		return true
	})
}

// checkCall reports allocating calls: the make/new/append builtins,
// allocating string conversions, and fmt calls (which box every
// argument into an interface).
func (h HotAlloc) checkCall(pass *Pass, call *ast.CallExpr, fname string, reused map[types.Object]bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "hot-loop allocation in %s: make allocates per iteration; hoist the buffer into reusable state", fname)
			case "new":
				pass.Reportf(call.Pos(), "hot-loop allocation in %s: new allocates per iteration; allocate from a pooled arena instead", fname)
			case "append":
				if !appendExempt(pass, call, reused) {
					pass.Reportf(call.Pos(), "hot-loop allocation in %s: append may grow its backing array; preallocate with capacity or reset with buf = buf[:0]", fname)
				}
			}
			return
		}
	}
	// Allocating conversions: string <-> []byte / []rune.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, pass.TypeOf(call.Args[0])
		if allocConversion(dst, src) {
			pass.Reportf(call.Pos(), "hot-loop allocation in %s: %s(%s) conversion copies its operand; reuse a buffer or restructure", fname, kindOf(dst), kindOf(src))
		}
		return
	}
	if pkg, fn, ok := pkgLevelCallee(pass, call); ok && pkg == "fmt" {
		pass.Reportf(call.Pos(), "hot-loop allocation in %s: fmt.%s boxes its arguments; hot paths must not format per iteration", fname, fn)
	}
}

// inPlaceConversions collects the string(b) conversions of a []byte
// that the compiler performs without copying: an operand of a
// comparison, and the key of a map read (not of a store, which keeps
// the key). A []rune has no such form: string(runes) always encodes
// into a new buffer.
func inPlaceConversions(pass *Pass, body ast.Node) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	stores := make(map[ast.Expr]bool)
	mark := func(e ast.Expr) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return
		}
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() &&
			isString(tv.Type) && isByteSlice(pass.TypeOf(call.Args[0])) {
			out[call] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				stores[ast.Unparen(l)] = true
			}
		case *ast.IncDecStmt:
			stores[ast.Unparen(x.X)] = true
		case *ast.BinaryExpr:
			switch x.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				mark(x.X)
				mark(x.Y)
			}
		case *ast.IndexExpr:
			if t := pass.TypeOf(x.X); t != nil && !stores[x] {
				if _, ok := t.Underlying().(*types.Map); ok {
					mark(x.Index)
				}
			}
		}
		return true
	})
	return out
}

// panicArgRanges collects the extents of every argument to the panic
// builtin: an allocation there runs at most once, on a death path, and
// is therefore never a steady-state hot-loop cost.
func panicArgRanges(pass *Pass, body ast.Node) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
			return true
		}
		for _, arg := range call.Args {
			out = append(out, posRange{arg.Pos(), arg.End()})
		}
		return true
	})
	return out
}

// appendExempt reports whether an append call is provably amortized:
// the destination is an explicit reslice (buf[:0] and friends), or a
// buffer this function preallocates with capacity or resets for reuse.
func appendExempt(pass *Pass, call *ast.CallExpr, reused map[types.Object]bool) bool {
	if len(call.Args) == 0 {
		return true
	}
	switch dst := ast.Unparen(call.Args[0]).(type) {
	case *ast.SliceExpr:
		return true // append(buf[:0], ...) — the canonical reuse idiom
	case *ast.Ident:
		return reused[pass.Info.ObjectOf(dst)]
	case *ast.SelectorExpr:
		return reused[pass.Info.ObjectOf(dst.Sel)]
	}
	return false
}

// reusedBuffers collects the variables this function either
// preallocates with an explicit capacity (3-argument make) or resets
// via a self-reslice (buf = buf[:0]); appends into them are amortized
// and therefore exempt.
func reusedBuffers(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		var obj types.Object
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj = pass.Info.ObjectOf(l)
		case *ast.SelectorExpr:
			obj = pass.Info.ObjectOf(l.Sel)
		}
		if obj == nil {
			return
		}
		switch r := ast.Unparen(rhs).(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(r.Args) >= 3 {
					out[obj] = true
				}
			}
		case *ast.SliceExpr:
			// A reslice of the same variable (buf = buf[:0]) marks reuse.
			switch x := ast.Unparen(r.X).(type) {
			case *ast.Ident:
				if pass.Info.ObjectOf(x) == obj {
					out[obj] = true
				}
			case *ast.SelectorExpr:
				if pass.Info.ObjectOf(x.Sel) == obj {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i := range s.Lhs {
				if i < len(s.Rhs) {
					record(s.Lhs[i], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range s.Names {
				if i < len(s.Values) {
					record(s.Names[i], s.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// markConsumed records lit and every composite literal nested inside it
// so one allocation is reported once, at its outermost site.
func markConsumed(lit *ast.CompositeLit, consumed map[*ast.CompositeLit]bool) {
	ast.Inspect(lit, func(n ast.Node) bool {
		if l, ok := n.(*ast.CompositeLit); ok {
			consumed[l] = true
		}
		return true
	})
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// allocConversion reports whether a conversion from src to dst copies
// its operand: string <-> byte/rune slice in either direction.
func allocConversion(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

// isByteOrRuneSlice reports whether t is a []byte or []rune variant.
func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isByteSlice reports whether t is a slice of bytes.
func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// kindOf renders a short, deterministic description of a type for
// diagnostics.
func kindOf(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	if isString(t) {
		return "string"
	}
	return t.String()
}
