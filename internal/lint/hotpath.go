package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotPath enforces the steady-state discipline from the dense-index
// scheduling work (PR 3): functions on the engine event-dispatch
// path — marked with //saath:hotpath on their doc comment — and
// everything they statically call within the same package must not
// allocate per call and must not touch a map (dense Idx- or
// port-indexed slices instead).
//
// Flagged inside hot functions: make, new, slice/map composite
// literals, append that does not feed back into its own backing array
// (x = append(x, ...) and s.buf = append(s.buf[:0], ...) are reuse;
// y = append(x, ...) is a copy), any map index or range expression,
// and any map type keyed by coflow.FlowID / coflow.CoFlowID.
// //saath:alloc-ok on the line (or the function's doc comment) accepts
// a finding — grow paths, arrival/retire-path work outside steady
// state, and kept map-based reference implementations are the
// legitimate uses.
//
// Reachability is intra-package and static only: calls through
// interfaces (e.g. sched.Scheduler.Schedule) and into other packages
// are not resolved, so each policy's Schedule and every cross-package
// callee on the path (sched.ContentionIndex.Sync/K/Signature,
// fabric.Fabric.Reset/Allocate/Release/SignatureAvailable/
// EqualRateForCoFlow/OpenEnds, the cached coflow.CoFlow accessors and
// the writers the engine and the coordinator call per flow —
// Progress/Restart/SetAvailable/Complete/CompleteAll) carries its own
// //saath:hotpath root annotation.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid per-call allocation idioms and map accesses in //saath:hotpath functions and their intra-package callees",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) error {
	// Index every function declaration in the package.
	decls := make(map[*types.Func]*ast.FuncDecl)
	fileOf := make(map[*ast.FuncDecl]*ast.File)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
				fileOf[fd] = file
			}
		}
	}

	// Seed the hot set from //saath:hotpath annotations, then close
	// over static same-package calls.
	hot := make(map[*ast.FuncDecl]string) // decl -> why it is hot
	var queue []*ast.FuncDecl
	for _, fd := range decls {
		if pass.Notes.Func(fd, NoteHotPath) {
			hot[fd] = "//saath:hotpath"
			queue = append(queue, fd)
		}
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		caller := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			callee, ok := decls[fn]
			if !ok {
				return true // other package, interface, or no body
			}
			if _, seen := hot[callee]; !seen {
				hot[callee] = "reachable from hot " + caller
				queue = append(queue, callee)
			}
			return true
		})
	}

	// Deterministic report order.
	ordered := make([]*ast.FuncDecl, 0, len(hot))
	for fd := range hot {
		ordered = append(ordered, fd)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Pos() < ordered[j].Pos() })

	for _, fd := range ordered {
		checkHotFunc(pass, fd, hot[fd])
	}
	return nil
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl, why string) {
	if pass.Notes.Func(fd, NoteAllocOK) {
		return
	}
	appendDst := appendAssignments(fd)
	report := func(pos token.Pos, format string, args ...any) {
		if pass.Notes.At(pass.Fset, pos, NoteAllocOK) {
			return
		}
		args = append(args, fd.Name.Name, why)
		pass.Reportf(pos, format+" in hot function %s (%s); hoist into reused scratch state or annotate //saath:alloc-ok", args...)
	}

	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.MapType:
			if name := coflowIDKey(pass.TypesInfo, n.Key); name != "" {
				report(n.Pos(), "map keyed by coflow.%s violates the dense-Idx-slice discipline", name)
			}
		case *ast.IndexExpr:
			if isMap(pass.TypesInfo, n.X) {
				report(n.Pos(), "map index hashes per call; key the state by a dense Idx or port slice")
			}
		case *ast.RangeStmt:
			if isMap(pass.TypesInfo, n.X) {
				report(n.Pos(), "map range walks buckets per call; keep the members in a slice")
			}
		case *ast.CallExpr:
			switch builtinName(pass.TypesInfo, n) {
			case "make":
				report(n.Pos(), "make allocates per call")
			case "new":
				report(n.Pos(), "new allocates per call")
			case "append":
				if !selfAppend(pass.TypesInfo, n, appendDst) {
					report(n.Pos(), "append into a different slice allocates/copies per call")
				}
			}
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[n]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates per call")
			case *types.Map:
				report(n.Pos(), "map literal allocates per call")
			}
		}
		return true
	})
}

// isMap reports whether the expression's type is a map.
func isMap(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Map)
	return ok
}

// coflowIDKey returns "FlowID" or "CoFlowID" when the map key type is
// one of coflow's identity types, else "".
func coflowIDKey(info *types.Info, key ast.Expr) string {
	tv, ok := info.Types[key]
	if !ok || tv.Type == nil {
		return ""
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/coflow") {
		return ""
	}
	if n := obj.Name(); n == "FlowID" || n == "CoFlowID" {
		return n
	}
	return ""
}

func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// appendAssignments maps each call expression that is the sole RHS
// of a single assignment under root to that assignment's LHS, so
// selfAppend can see an append's destination.
func appendAssignments(root ast.Node) map[*ast.CallExpr]ast.Expr {
	out := make(map[*ast.CallExpr]ast.Expr)
	ast.Inspect(root, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			return true
		}
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			out[call] = as.Lhs[0]
		}
		return true
	})
	return out
}

// selfAppend reports whether an append call feeds its own first
// argument's backing array: the call is the sole RHS of a single
// assignment whose LHS denotes the same variable/field chain as the
// (possibly resliced) first argument.
func selfAppend(info *types.Info, call *ast.CallExpr, dst map[*ast.CallExpr]ast.Expr) bool {
	lhs, ok := dst[call]
	if !ok {
		return false
	}
	return sameRef(info, lhs, baseExpr(call.Args[0]))
}

// sameRef reports whether two expressions denote the same storage
// location through idents, field selections, and constant- or
// variable-indexed elements (x, s.buf, s.buckets[q]).
func sameRef(info *types.Info, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch a := a.(type) {
	case *ast.Ident:
		bi, ok := b.(*ast.Ident)
		if !ok {
			return false
		}
		ao, bo := identObj(info, a), identObj(info, bi)
		return ao != nil && ao == bo
	case *ast.SelectorExpr:
		bs, ok := b.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		ao, bo := info.Uses[a.Sel], info.Uses[bs.Sel]
		if ao == nil || ao != bo {
			return false
		}
		return sameRef(info, a.X, bs.X)
	case *ast.IndexExpr:
		bx, ok := b.(*ast.IndexExpr)
		if !ok {
			return false
		}
		return sameRef(info, a.X, bx.X) && sameIndex(info, a.Index, bx.Index)
	}
	return false
}

// sameIndex reports whether two index expressions are trivially the
// same value: the same variable, or equal constants.
func sameIndex(info *types.Info, a, b ast.Expr) bool {
	if ao := identObj(info, a); ao != nil && ao == identObj(info, b) {
		return true
	}
	atv, aok := info.Types[a]
	btv, bok := info.Types[b]
	return aok && bok && atv.Value != nil && btv.Value != nil && atv.Value.ExactString() == btv.Value.ExactString()
}
