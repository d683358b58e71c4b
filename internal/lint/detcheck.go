package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// detPackages are the determinism-critical packages: everything whose
// computation can reach study output bytes. internal/obs and
// internal/runtime are deliberately absent — they keep out-of-band
// state (spans, coordinator bookkeeping) that never reaches a study's
// bytes.
var detPackages = []string{
	"saath/internal/sim",
	"saath/internal/sched",
	"saath/internal/trace",
	"saath/internal/sweep",
	"saath/internal/study",
	"saath/internal/coflow",
	"saath/internal/queues",
	"saath/internal/stats",
	"saath/internal/testbed",
	"saath/internal/telemetry",
	"saath/internal/report",
	"saath/internal/fabric",
	"saath/internal/core",
}

// DetCheck flags a range over a map, in a determinism-critical package,
// whose iteration order can reach results. It exists because no test
// sees that defect: deleting the sort.Float64s that orders
// stats.Speedups' map-ordered ratios passes every tier-1 test (its
// callers' percentiles sort a copy, and a mean of the reordered ratios
// differs only in low bits no golden prints), and this rule flags it. A wall-clock read or a global math/rand draw reaching
// study bytes has no rule: it fails the shard, catalog and
// parallel-invariance goldens at once.
//
// Map-range loops are accepted without annotation when the analyzer
// can prove order-independence structurally: bodies that only delete
// from the ranged map, accumulate into integer lvalues with
// commutative ops, or store under the range key into another map; and
// the collect-then-sort idiom (body only appends keys/values to
// slices that a following sibling statement passes to sort/slices).
// Everything else needs a //saath:order-independent annotation or a
// rewrite.
var DetCheck = &Analyzer{
	Name: "detcheck",
	Doc:  "forbid order-dependent map iteration in determinism-critical packages",
	AppliesTo: func(path string) bool {
		return pathIn(path, detPackages)
	},
	Run: runDetCheck,
}

func runDetCheck(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if stmts := stmtList(n); stmts != nil {
				for i, s := range stmts {
					if rs, ok := unlabel(s).(*ast.RangeStmt); ok {
						checkMapRange(pass, file, rs, stmts[i+1:])
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags a range over a map unless the loop is
// annotation-suppressed or structurally order-independent.
func checkMapRange(pass *Pass, file *ast.File, rs *ast.RangeStmt, following []ast.Stmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.Notes.Suppressed(pass.Fset, rs.Pos(), enclosingFunc(file, rs.Pos()), NoteOrderIndependent) {
		return
	}
	if mapRangeBodySafe(pass, rs) {
		return
	}
	if collectThenSort(pass, rs, following) {
		return
	}
	pass.Reportf(rs.Pos(),
		"range over map iterates in nondeterministic order and the loop body can affect results; sort the keys first, restructure, or annotate //saath:order-independent with a rationale")
}

// mapRangeBodySafe reports whether every statement in the loop body
// is provably order-independent: delete from a map, commutative
// integer accumulation, or a store into another map keyed by the
// range key (distinct per iteration).
func mapRangeBodySafe(pass *Pass, rs *ast.RangeStmt) bool {
	keyObj := identObj(pass.TypesInfo, rs.Key)
	if len(rs.Body.List) == 0 {
		return true
	}
	for _, s := range rs.Body.List {
		if !orderIndependentStmt(pass, s, keyObj) {
			return false
		}
	}
	return true
}

func orderIndependentStmt(pass *Pass, s ast.Stmt, keyObj types.Object) bool {
	switch s := unlabel(s).(type) {
	case *ast.ExprStmt:
		// delete(m, k) commutes across iterations.
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == types.Universe.Lookup("delete")
	case *ast.IncDecStmt:
		return isIntegerExpr(pass.TypesInfo, s.X)
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative and associative only over integers: float
			// accumulation is order-dependent in the low bits.
			return len(s.Lhs) == 1 && isIntegerExpr(pass.TypesInfo, s.Lhs[0])
		case token.ASSIGN:
			// other[k] = ... — each iteration writes a distinct key,
			// so iteration order cannot matter (the RHS may read the
			// range variables freely).
			if len(s.Lhs) != 1 {
				return false
			}
			ix, ok := s.Lhs[0].(*ast.IndexExpr)
			if !ok {
				return false
			}
			if _, isMap := pass.TypesInfo.Types[ix.X].Type.Underlying().(*types.Map); !isMap {
				return false
			}
			return keyObj != nil && identObj(pass.TypesInfo, ix.Index) == keyObj
		}
		return false
	}
	return false
}

// collectThenSort recognizes the canonical sorted-iteration idiom:
// the body only appends to slice variables, and each of those slices
// is handed to a sort/slices call in a following sibling statement
// before anything else can observe it.
func collectThenSort(pass *Pass, rs *ast.RangeStmt, following []ast.Stmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	var targets []types.Object
	for _, s := range rs.Body.List {
		as, ok := unlabel(s).(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || pass.TypesInfo.Uses[id] != types.Universe.Lookup("append") {
			return false
		}
		dst := identObj(pass.TypesInfo, as.Lhs[0])
		if dst == nil || identObj(pass.TypesInfo, baseExpr(call.Args[0])) != dst {
			return false
		}
		targets = append(targets, dst)
	}
	for _, dst := range targets {
		if !sortedAfter(pass, dst, following) {
			return false
		}
	}
	return true
}

// sortedAfter reports whether one of the following sibling statements
// passes obj to a sort or slices call.
func sortedAfter(pass *Pass, obj types.Object, following []ast.Stmt) bool {
	for _, s := range following {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if refersTo(pass.TypesInfo, arg, obj) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// --- shared AST helpers ---

// stmtList returns the statement list a node owns, if any.
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

func unlabel(s ast.Stmt) ast.Stmt {
	for {
		ls, ok := s.(*ast.LabeledStmt)
		if !ok {
			return s
		}
		s = ls.Stmt
	}
}

// calleeFunc resolves the *types.Func a call invokes, or nil for
// builtins, conversions, and dynamic calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// baseExpr unwraps slice expressions: buf[:0] -> buf.
func baseExpr(e ast.Expr) ast.Expr {
	for {
		se, ok := ast.Unparen(e).(*ast.SliceExpr)
		if !ok {
			return ast.Unparen(e)
		}
		e = se.X
	}
}

func isIntegerExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// refersTo reports whether expr mentions obj.
func refersTo(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
