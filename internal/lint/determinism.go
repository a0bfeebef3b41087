package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismPackages lists the import paths whose reports must be
// byte-stable for a given seed regardless of worker count or map
// layout. The sweep CI gate compares matrices with cmp; any
// nondeterminism in these packages breaks it only when a bench happens
// to catch it, so the sources of nondeterminism are banned at the
// source level instead.
var DeterminismPackages = map[string]bool{
	"zipline/internal/netsim":       true,
	"zipline/internal/scenario":     true,
	"zipline/internal/sweep":        true,
	"zipline/internal/controlplane": true,
	// The fault-era dataplane hooks (epoch-tagged digests, bypass,
	// restart) put zswitch on the byte-stability critical path too.
	"zipline/internal/zswitch": true,
	// Topology generation and dictionary placement feed the scenario
	// expander: a map-ordered graph walk or share split would shuffle
	// ports, identifier ranges, and ultimately whole reports.
	"zipline/internal/topo":      true,
	"zipline/internal/placement": true,
	// Table state drives the controller's victim choice and the
	// report bytes: table walks must stay in slot order.
	"zipline/internal/tofino": true,
}

// Determinism bans nondeterminism sources inside the simulation and
// report packages: time.Now (virtual time only), the global math/rand
// functions (a seeded *rand.Rand must be threaded through), sync.Map
// (scheduling-order-dependent), and iteration over a map unless the
// loop only collects into a slice that is sorted afterwards in the same
// function. An order-insensitive map loop carries
// //ziplint:allow determinism with a reason.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "ban wall-clock, global rand, sync.Map and unsorted map iteration in simulation/report packages",
	Run:  runDeterminism,
}

// randConstructors are the math/rand functions that build the seeded
// generators the determinism contract requires; everything else at
// package level draws from the global, racy, seed-ignoring source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	if !DeterminismPackages[pass.Pkg.Path()] {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDeterminismFunc(pass, fd)
		}
		checkSyncMap(pass, f)
	}
}

func checkDeterminismFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPkgFunc(pass.Info, n, "time", "Now") {
				pass.Reportf(n.Pos(), "time.Now in a deterministic package: use the simulation's virtual clock")
			}
			if fn := funcObj(pass.Info, n); fn != nil && fn.Pkg() != nil {
				path := fn.Pkg().Path()
				if (path == "math/rand" || path == "math/rand/v2") &&
					fn.Type().(*types.Signature).Recv() == nil &&
					!randConstructors[fn.Name()] {
					pass.Reportf(n.Pos(), "global %s.%s in a deterministic package: thread a seeded *rand.Rand instead", path, fn.Name())
				}
			}
		case *ast.RangeStmt:
			checkMapRange(pass, fd, n)
		}
		return true
	})
}

// checkSyncMap flags any use of the sync.Map type: its iteration and
// internal promotion order depend on goroutine scheduling.
func checkSyncMap(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if tn, ok := pass.Info.Uses[sel.Sel].(*types.TypeName); ok &&
			tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Map" &&
			!pass.IsTestFile(sel.Pos()) {
			pass.Reportf(sel.Pos(), "sync.Map in a deterministic package: use a plain map under a mutex so iteration can be sorted")
		}
		return true
	})
}

// checkMapRange enforces the collect-then-sort discipline: a range over
// a map is allowed only when a variable written inside the loop is
// passed to a sort function later in the same enclosing function.
func checkMapRange(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}

	// Variables assigned (or appended to) inside the loop body.
	written := make(map[types.Object]bool)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range asg.Lhs {
			if obj := rootObject(pass.Info, lhs); obj != nil {
				written[obj] = true
			}
		}
		return true
	})

	// A sort call after the loop on one of those variables makes the
	// iteration order irrelevant.
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || sorted {
			return !sorted
		}
		fn := funcObj(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		path := fn.Pkg().Path()
		isSort := path == "sort" || (path == "slices" && strings.HasPrefix(fn.Name(), "Sort"))
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if obj := rootObject(pass.Info, arg); obj != nil && written[obj] {
				sorted = true
			}
		}
		return true
	})
	if !sorted {
		pass.Reportf(rng.Pos(), "map iteration order leaks into a deterministic package: collect into a slice and sort it, or justify with //ziplint:allow determinism")
	}
}

// rootObject resolves an lvalue-ish expression (x, x.f, x[i], *x) to
// its base variable.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
