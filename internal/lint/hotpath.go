package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotPath keeps the dense-index discipline on the hot path: functions
// marked with //saath:hotpath on their doc comment, and everything they
// statically call within the same package, must not touch a map —
// state lives in dense Idx- or port-indexed slices instead. Flagged inside hot
// functions: any map index or range expression, and any map type keyed
// by coflow.FlowID / coflow.CoFlowID. //saath:map-ok on the line (or
// the function's doc comment) accepts a finding: a lookup by an ID the
// caller only has as an ID, and retire- or arrival-path work outside
// steady state, are the legitimate uses.
//
// The rule exists because no test sees its defect: a map read added to
// sched.ContentionIndex.K, or a range over a map added to
// fabric.Fabric.OpenEnds, allocates nothing and changes no result, so
// every tier-1 test and allocation guard passes; only the hash per call
// is lost. An allocation on the hot path has no rule here: an escaping
// one at the top of any hot-path root fails an allocation guard that
// `make guards` runs (TestScheduleAllocGuards, TestEngineLayerGuards,
// TestTestbedLayerGuards, TestCoordinatorBoundaryZeroAlloc, the
// internal/sim, telemetry and coflow ZeroAlloc guards).
//
// Reachability is intra-package and static only: calls through
// interfaces (e.g. sched.Scheduler.Schedule) and into other packages
// are not resolved, so each policy's Schedule and every cross-package
// callee on the path (sched.ContentionIndex.Sync/K/Signature,
// fabric.Fabric.Reset/Allocate/SignatureAvailable/EqualRateForCoFlow/
// OpenEnds/MaxMinFairInto, the cached coflow.CoFlow accessors and the
// writers the engine and the coordinator call per flow —
// Progress/Restart/SetAvailable/Complete/CompleteAll) carries its own
// //saath:hotpath root annotation. The coordinator's roots are its
// boundary (runtime.Coordinator.StepSchedule, with retire below it),
// the report path (ReportInproc, mergeStat) and the agent's
// Deliver/Step.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid map accesses in //saath:hotpath functions and their intra-package callees",
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
	if pass.Notes.Func(fd, NoteMapOK) {
		return
	}
	report := func(pos token.Pos, format string, args ...any) {
		if pass.Notes.At(pass.Fset, pos, NoteMapOK) {
			return
		}
		args = append(args, fd.Name.Name, why)
		pass.Reportf(pos, format+" in hot function %s (%s); key the state by a dense Idx or port slice, or annotate //saath:map-ok", args...)
	}

	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.MapType:
			if name := coflowIDKey(pass.TypesInfo, n.Key); name != "" {
				report(n.Pos(), "map keyed by coflow.%s", name)
			}
		case *ast.IndexExpr:
			if isMap(pass.TypesInfo, n.X) {
				report(n.Pos(), "map index hashes per call")
			}
		case *ast.RangeStmt:
			if isMap(pass.TypesInfo, n.X) {
				report(n.Pos(), "map range walks buckets per call")
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
