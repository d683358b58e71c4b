package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// obsPurePackages must stay entirely obs-free: they compute or render
// study output, so even an import of internal/obs is a layering leak.
// sim, sweep, study and testbed legitimately carry obs
// plumbing (the Config.Counters seam, recorder hooks, manifests) —
// their discipline is behavioral (obsgolden byte-identity tests) plus
// the Counters-write rule below.
var obsPurePackages = []string{
	"saath/internal/sched",
	"saath/internal/trace",
	"saath/internal/coflow",
	"saath/internal/queues",
	"saath/internal/stats",
	"saath/internal/telemetry",
	"saath/internal/report",
	"saath/internal/fabric",
	"saath/internal/core",
}

// obsCountersWriters are the only packages that may attach engine
// counters to a simulation: the engine that steps them, the sweep
// runner that wires them per job when observation is on, and obs
// itself. Everyone else — the study layer above all — must treat
// sim.Config.Counters as read-only (study validates it is nil).
var obsCountersWriters = []string{
	"saath/internal/sim",
	"saath/internal/sweep",
	"saath/internal/obs",
}

// ObsCheck enforces the out-of-band-observability invariant: obs
// types must not leak into study-output-affecting code. Two rules:
//
//  1. the pure output packages above must not import internal/obs at
//     all;
//  2. sim.Config.Counters may be written (assigned or set in a
//     composite literal) only in the sanctioned writer packages.
//
// //saath:obs-ok on the offending line accepts a finding when new
// out-of-band plumbing is being added deliberately.
var ObsCheck = &Analyzer{
	Name: "obscheck",
	Doc:  "keep obs plumbing (internal/obs imports, sim.Config.Counters writes) out of study-output-affecting code",
	AppliesTo: func(path string) bool {
		return strings.HasPrefix(path, "saath/")
	},
	Run: runObsCheck,
}

func runObsCheck(pass *Pass) error {
	pure := pathIn(pass.Pkg.Path(), obsPurePackages)
	mayWrite := pathIn(pass.Pkg.Path(), obsCountersWriters)

	for _, file := range pass.Files {
		if pure {
			for _, imp := range file.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if !strings.HasSuffix(p, "internal/obs") {
					continue
				}
				if pass.Notes.At(pass.Fset, imp.Pos(), NoteObsOK) {
					continue
				}
				pass.Reportf(imp.Pos(),
					"package %s computes study output and must not import %s; observability is out-of-band by contract (//saath:obs-ok to accept deliberate plumbing)",
					pass.Pkg.Path(), p)
			}
		}
		if mayWrite {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if isSimConfigCounters(pass.TypesInfo, lhs) {
						reportCountersWrite(pass, file, lhs)
					}
				}
			case *ast.CompositeLit:
				if !isSimConfigType(typeOf(pass.TypesInfo, n)) {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Counters" {
						reportCountersWrite(pass, file, kv)
					}
				}
			}
			return true
		})
	}
	return nil
}

func reportCountersWrite(pass *Pass, file *ast.File, at ast.Node) {
	if pass.Notes.Suppressed(pass.Fset, at.Pos(), enclosingFunc(file, at.Pos()), NoteObsOK) {
		return
	}
	pass.Reportf(at.Pos(),
		"sim.Config.Counters may only be attached by the engine, the sweep runner, or obs itself; writing it here leaks observability into a study-output path (//saath:obs-ok to accept)")
}

// isSimConfigCounters reports whether expr denotes the Counters field
// of sim.Config (directly or through a pointer).
func isSimConfigCounters(info *types.Info, expr ast.Expr) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Counters" {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	return isSimConfigType(s.Recv())
}

// isSimConfigType reports whether t is (a pointer to) the sim
// package's Config type.
func isSimConfigType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Config" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/sim")
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
