package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism rejects nondeterminism sources that would make replicas
// of the distributed mechanism disagree byte-for-byte: wall-clock
// reads, draws from the process-global math/rand state, and
// map-order-dependent output. Algorithm 2's cheater detection accuses
// any node whose announced values differ from the accuser's own
// recomputation, so an honest node with a nondeterministic code path
// would be indistinguishable from a cheater.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand state, and map-ordered output " +
		"in library code; replicas must compute byte-identical results",
	Run: runDeterminism,
}

// orderedSinkPrefixes are call-name prefixes that commit bytes or
// records in iteration order.
var orderedSinkPrefixes = []string{"Write", "Fprint", "Print", "Encode", "Marshal", "Append"}

func runDeterminism(p *Pass) {
	for _, f := range p.Pkg.Files {
		sorted := sortTargets(p, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(p, n)
			case *ast.RangeStmt:
				checkMapRange(p, n, sorted)
			}
			return true
		})
	}
}

func checkDeterminismCall(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p.Pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch path := fn.Pkg().Path(); path {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			p.Reportf(call.Pos(), "time.%s reads the wall clock; replicas of the mechanism must not observe real time", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil { // methods on a seeded *rand.Rand are fine
			return
		}
		if strings.HasPrefix(fn.Name(), "New") { // constructors, not draws
			return
		}
		p.Reportf(call.Pos(), "%s.%s draws from the process-global RNG; use a seeded *rand.Rand so runs replay", path, fn.Name())
	}
}

// sortTargets collects the variables that are handed to a sorting
// call — anything from package sort or slices, or a local helper
// whose name says it sorts (sortChKeys-style) — anywhere in the
// file: appending to one of those inside a map range is the
// legitimate collect-then-sort idiom.
func sortTargets(p *Pass, f *ast.File) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.Pkg, call)
		if fn == nil {
			return true
		}
		isSorter := strings.Contains(strings.ToLower(fn.Name()), "sort")
		if fn.Pkg() != nil {
			if path := fn.Pkg().Path(); path == "sort" || path == "slices" {
				isSorter = true
			}
		}
		if !isSorter {
			return true
		}
		for _, arg := range call.Args {
			if obj := targetObject(p, arg); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// targetObject resolves the variable (plain identifier or field
// selector) an expression names, or nil.
func targetObject(p *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.Pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		return p.Pkg.Info.Uses[e.Sel]
	}
	return nil
}

// checkMapRange flags a range over a map whose body feeds an
// order-sensitive sink: an append to a slice that is never sorted, a
// call that writes/encodes/prints in iteration order, or a float
// `+=`/`-=` fold into one target across keys (float addition is not
// associative, so the sum's last bits follow the order). Commutative
// bodies (integer sums, map-to-map copies, keyed writes, per-key
// `m[k] += v`) pass.
func checkMapRange(p *Pass, r *ast.RangeStmt, sorted map[types.Object]bool) {
	t := p.Pkg.Info.TypeOf(r.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	var sink string
	ast.Inspect(r.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			if target := floatFoldTarget(p, as, r.Key); target != "" {
				sink = "folds floats into " + target + " in map order"
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltin(p.Pkg, call, "append") && len(call.Args) > 0 {
			if obj := targetObject(p, call.Args[0]); obj != nil && !sorted[obj] {
				sink = "appends to " + obj.Name() + " in map order (and " + obj.Name() + " is never sorted)"
			}
			return true
		}
		name := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		for _, prefix := range orderedSinkPrefixes {
			if strings.HasPrefix(name, prefix) {
				sink = "calls " + name + " in map order"
				break
			}
		}
		return sink == ""
	})
	if sink != "" {
		p.Reportf(r.Pos(), "map iteration order is randomized per process but this loop %s; iterate a sorted key slice instead", sink)
	}
}

// floatFoldTarget returns the rendered target of a float `+=` or `-=`
// in a map range body, or "" when as is no such fold or its target is
// indexed by the range key (each key then owns its own sum).
func floatFoldTarget(p *Pass, as *ast.AssignStmt, key ast.Expr) string {
	if (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) || len(as.Lhs) != 1 {
		return ""
	}
	lhs := as.Lhs[0]
	t := p.Pkg.Info.TypeOf(lhs)
	if t == nil {
		return ""
	}
	if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&(types.IsFloat|types.IsComplex) == 0 {
		return ""
	}
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		idx, idxOK := ast.Unparen(ix.Index).(*ast.Ident)
		k, keyOK := key.(*ast.Ident)
		if idxOK && keyOK && k.Name != "_" && p.Pkg.Info.ObjectOf(idx) == p.Pkg.Info.ObjectOf(k) {
			return ""
		}
	}
	return types.ExprString(lhs)
}
