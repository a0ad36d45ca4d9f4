package analysis

import (
	"go/ast"
	"go/token"
)

// AtomicMix flags variables that are accessed through sync/atomic in
// one place and read or written plainly in another. Mixed access is a
// data race the race detector only catches when both sides execute in
// the same run; the job engine's lifecycle counters and the
// degradation ladder's counters are one careless refactor away from
// exactly this bug class, so the suite rejects it statically.
//
// The facts engine records, module-wide, every variable whose address
// is passed to a sync/atomic function; this analyzer then reports every
// plain use of those variables. Composite-literal field keys and
// declarations are exempt (initialization before publication is safe by
// convention); the typed wrappers (atomic.Int64 and friends) are immune
// by construction and therefore the recommended fix.
type AtomicMix struct{}

// Name implements Analyzer.
func (AtomicMix) Name() string { return "atomicmix" }

// Doc implements Analyzer.
func (AtomicMix) Doc() string {
	return "flags plain reads/writes of variables that are elsewhere accessed via sync/atomic; " +
		"mixed access races — migrate to the typed atomic wrappers"
}

// Run implements Analyzer.
func (a AtomicMix) Run(pass *Pass) {
	if pass.Facts == nil {
		return
	}
	for _, file := range pass.Files {
		exempt := atomicExemptIdents(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || exempt[id] {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				return true
			}
			use, atomic := pass.Facts.AtomicUseOf(obj)
			if !atomic {
				return true
			}
			pass.Reportf(id.Pos(), "%s is accessed via sync/atomic at %s:%d but read/written plainly here; mixed access races — use the atomic API everywhere or a typed atomic wrapper",
				id.Name, use.Pos.Filename, use.Pos.Line)
			return true
		})
	}
}

// atomicExemptIdents collects the identifiers in file that are
// legitimate non-plain uses of atomically-accessed variables: the
// address operand of a sync/atomic call itself, and &x arguments in
// general (passing the address on is how helpers share the atomic
// variable; the callee's accesses are checked wherever they occur).
func atomicExemptIdents(pass *Pass, file *ast.File) map[*ast.Ident]bool {
	exempt := make(map[*ast.Ident]bool)
	markLeaf := func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			exempt[x] = true
		case *ast.SelectorExpr:
			exempt[x.Sel] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				markLeaf(x.X)
			}
		case *ast.CompositeLit:
			// Field keys in a literal are initialization before
			// publication, not a racing access.
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					markLeaf(kv.Key)
				}
			}
		}
		return true
	})
	return exempt
}
