// Package determinism enforces the simulator's bit-for-bit reproducibility
// contract (DESIGN.md; asserted at runtime by the serial-vs-parallel
// byte-identity test): inside the simulation packages there must be no wall
// clock, no global RNG, no goroutines, and no order-sensitive work done
// while ranging over a map.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hawkeye/internal/analysis"
)

// Analyzer flags nondeterminism hazards in the simulation packages.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, global math/rand, stray goroutines and " +
		"order-sensitive map iteration in the simulation packages",
	Run: run,
}

// simulationPackages are the internal packages whose code runs inside (or
// produces the inputs/outputs of) the deterministic simulation. The parallel
// experiment runner, internal/runner and its subpackages, is excluded: it
// owns real wall-clock timing and is the one sanctioned home for goroutines.
var simulationPackages = map[string]bool{
	"sim": true, "mem": true, "vmm": true, "tlb": true, "kernel": true,
	"policy": true, "ksm": true, "experiments": true, "workload": true,
	"core": true, "virt": true, "content": true, "fault": true, "metrics": true,
	"trace": true, "snapshot": true, "cache": true,
}

const internalPrefix = "hawkeye/internal/"

func covered(pkgPath string) bool {
	rest, ok := strings.CutPrefix(pkgPath, internalPrefix)
	if !ok {
		return false
	}
	seg, _, _ := strings.Cut(rest, "/")
	return simulationPackages[seg]
}

// concurrencySanctioned reports whether pkgPath is allowed to start
// goroutines: internal/runner and its subpackages (the worker pools, and
// internal/runner/pool, the fan-out helper that simulation packages call)
// and internal/introspect (the live debug server, whose HTTP handlers run
// on net/http's goroutines and are pull-only by contract — they never write
// simulation state).
func concurrencySanctioned(pkgPath string) bool {
	for _, p := range [...]string{"runner", "introspect"} {
		if pkgPath == internalPrefix+p ||
			strings.HasPrefix(pkgPath, internalPrefix+p+"/") {
			return true
		}
	}
	return false
}

// wallClockFuncs are the time package functions that read the machine's
// real clock (simulated time lives in sim.Time).
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// randConstructors are the math/rand functions that build a private,
// seedable generator — those are fine; everything else at package level
// drives the global shared source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	inSim := covered(path)
	checkGoroutines := strings.HasPrefix(path, internalPrefix) && !concurrencySanctioned(path)
	if !inSim && !checkGoroutines {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if checkGoroutines {
					pass.Reportf(n.Pos(), "goroutine outside internal/runner: concurrency in the simulation breaks serial/parallel byte-identity (move the fan-out into internal/runner, or observability serving into internal/introspect)")
				}
			case *ast.SelectorExpr:
				if inSim {
					checkSelector(pass, n)
				}
			case *ast.RangeStmt:
				if inSim {
					checkMapRange(pass, f, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkSelector flags time.<wallclock> and global math/rand uses.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pn.Imported().Path() {
	case "time":
		if wallClockFuncs[sel.Sel.Name] {
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock: simulated time must come from sim.Clock / Engine.Now", sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[sel.Sel.Name] {
			pass.Reportf(sel.Pos(), "rand.%s uses the global math/rand source: draw from the engine's seeded sim.Rand (or a Fork of it) instead", sel.Sel.Name)
		}
	}
}

// checkMapRange flags `for ... range m` over a map when the body does
// order-sensitive work: writes to variables declared outside the loop,
// appends without a subsequent sort, calls with discarded results (assumed
// side-effecting), or returns that depend on which key came up first.
func checkMapRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	info := pass.TypesInfo

	outer := func(id *ast.Ident) bool {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		return v.Pos() < rng.Pos() || v.Pos() > rng.End()
	}

	// rootIdent peels selectors/indexes/stars to the base identifier, so a
	// write to x.f or x[i] counts as a write to x.
	var rootIdent func(e ast.Expr) *ast.Ident
	rootIdent = func(e ast.Expr) *ast.Ident {
		switch e := e.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			return rootIdent(e.X)
		case *ast.IndexExpr:
			return rootIdent(e.X)
		case *ast.StarExpr:
			return rootIdent(e.X)
		case *ast.ParenExpr:
			return rootIdent(e.X)
		}
		return nil
	}

	rangedMap := rootIdent(rng.X)
	sameAsRangedMap := func(e ast.Expr) bool {
		id := rootIdent(e)
		return id != nil && rangedMap != nil && info.Uses[id] != nil &&
			info.Uses[id] == info.Uses[rangedMap]
	}

	// appendTargets collects outer variables that only ever receive
	// `x = append(x, ...)`; they are tolerated iff sorted after the loop.
	appendTargets := map[types.Object]*ast.Ident{}
	var bad []struct {
		pos token.Pos
		msg string
	}
	report := func(pos token.Pos, msg string) {
		bad = append(bad, struct {
			pos token.Pos
			msg string
		}{pos, msg})
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id := rootIdent(lhs)
				if id == nil || id.Name == "_" || !outer(id) {
					continue
				}
				// delete()/writes into the ranged map itself are fine: the
				// final map content does not depend on visit order.
				if sameAsRangedMap(lhs) {
					continue
				}
				if i < len(n.Rhs) {
					if call, ok := n.Rhs[i].(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
						if arg0 := rootIdent(call.Args[0]); arg0 != nil && info.Uses[arg0] == objOf(info, id) {
							appendTargets[objOf(info, id)] = id
							continue
						}
					}
				}
				report(n.Pos(), "map iteration order is random: assignment to outer variable "+id.Name+" makes the result order-dependent")
			}
		case *ast.IncDecStmt:
			if id := rootIdent(n.X); id != nil && outer(id) && !sameAsRangedMap(n.X) {
				report(n.Pos(), "map iteration order is random: update of outer variable "+id.Name+" inside map range")
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if isBuiltin(info, call, "delete") && len(call.Args) > 0 && sameAsRangedMap(call.Args[0]) {
					return true
				}
				if isAnyBuiltin(info, call) {
					return true
				}
				report(n.Pos(), "map iteration order is random: call with discarded result inside map range (side effects happen in nondeterministic order)")
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if !isConstExpr(info, res) {
					report(n.Pos(), "map iteration order is random: returning a value that depends on which key is visited first")
					break
				}
			}
		case *ast.SendStmt:
			report(n.Pos(), "map iteration order is random: channel send inside map range")
		case *ast.FuncLit:
			return false // deferred work is the closure's problem at its call site
		}
		return true
	})

	// An append-only collection is fine if the slice is sorted right after
	// the loop in the same block.
	for obj, id := range appendTargets {
		if !sortedAfter(info, file, rng, obj) {
			report(id.Pos(), "map keys/values collected into "+id.Name+" are in random order: sort the slice immediately after the loop")
		}
	}

	for _, b := range bad {
		pass.Reportf(b.pos, "%s", b.msg)
	}
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

func isAnyBuiltin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && (tv.Value != nil || tv.IsNil())
}

// sortedAfter reports whether obj is passed to a sort function in a
// statement following rng within the enclosing block.
func sortedAfter(info *types.Info, file *ast.File, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		isSort := strings.Contains(strings.ToLower(sel.Sel.Name), "sort")
		if id, ok := sel.X.(*ast.Ident); ok && !isSort {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				p := pn.Imported().Path()
				isSort = p == "sort" || p == "slices"
			}
		}
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}
