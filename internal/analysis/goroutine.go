package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"psbox/internal/analysis/callgraph"
	"psbox/internal/analysis/dataflow"
)

// This file holds the goroutine model shared by the host-concurrency
// analyzers (goroutineconfine, locksetatomic): spawn-site discovery — `go`
// statements plus function values handed to spawn helpers, found through a
// bottom-up fixpoint over the call graph — and the capture analysis that
// computes, for each spawned goroutine, the confined values it can reach
// through closure free variables, call arguments, and bound receivers,
// addressed as the same (root object, access path) cells the dataflow
// engine uses.

// confinedSeed lists the types that are confined by contract: each may be
// reachable from at most one goroutine at a time (DESIGN.md §"Concurrency
// contracts"). The paths name the real module's packages; the analysistest
// fixtures provide stubs at the same import paths.
var confinedSeed = map[string][]string{
	"psbox":                   {"System"},
	"psbox/internal/snapshot": {"Encoder"},
	"psbox/internal/obs":      {"Bus"},
	"psbox/internal/sim":      {"Rand"},
}

// confinedMarker is the comment marker that declares a type confined in
// addition to the seed list:
//
//	//psbox:confined
//	type Engine struct{ ... }
const confinedMarker = "//psbox:confined"

// confinedTypeSet computes, once per program, the set of confined type
// names: the seed list resolved against the loaded packages, plus every
// type whose declaration carries a //psbox:confined marker (on the type
// spec, its doc group, or the enclosing type decl).
func confinedTypeSet(prog *Program) map[*types.TypeName]bool {
	v := prog.Fact("goroutine.confined", func() any {
		set := make(map[*types.TypeName]bool)
		for _, pkg := range prog.Pkgs {
			for _, name := range confinedSeed[pkg.Path] {
				if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok {
					set[tn] = true
				}
			}
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					gd, ok := d.(*ast.GenDecl)
					if !ok || gd.Tok != token.TYPE {
						continue
					}
					declMarked := confinedComment(gd.Doc)
					for _, spec := range gd.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if declMarked || confinedComment(ts.Doc) || confinedComment(ts.Comment) {
							if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
								set[tn] = true
							}
						}
					}
				}
			}
		}
		return set
	})
	return v.(map[*types.TypeName]bool)
}

func confinedComment(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if c.Text == confinedMarker || strings.HasPrefix(c.Text, confinedMarker+" ") {
			return true
		}
	}
	return false
}

// confinedOf reports the confined type name a value of type t gives access
// to, unwrapping pointers (a *System reaches the System), or nil.
func confinedOf(set map[*types.TypeName]bool, t types.Type) *types.TypeName {
	for i := 0; i < 8; i++ {
		t = types.Unalias(t)
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if tn := named.Obj(); set[tn] {
		return tn
	}
	return nil
}

// confinedDesc renders a confined type for diagnostics: pkg.Name.
func confinedDesc(tn *types.TypeName) string {
	if pkg := tn.Pkg(); pkg != nil {
		return pkg.Name() + "." + tn.Name()
	}
	return tn.Name()
}

// A gorCell addresses one value the way the dataflow engine does: the
// access path under a root object ("st" + ".sys" is the sys field of st).
type gorCell struct {
	root types.Object
	path string
}

// describe renders the offending path for diagnostics ("st.sys").
func (c gorCell) describe() string { return c.root.Name() + c.path }

// pathCovers reports whether a cell at path p speaks for path q: p == q or
// p is a proper segment-prefix of q.
func pathCovers(p, q string) bool {
	if p == q {
		return true
	}
	rest, ok := strings.CutPrefix(q, p)
	return ok && strings.HasPrefix(rest, ".")
}

// cellsOverlap reports whether two cells can address the same storage:
// same root, one path covering the other.
func cellsOverlap(a, b gorCell) bool {
	return a.root == b.root && (pathCovers(a.path, b.path) || pathCovers(b.path, a.path))
}

// gorCellOf resolves an expression to the cell it addresses, mirroring the
// dataflow engine's lvals: selectors extend the path, indexing collapses
// to the element slot, and *x / &x / (x) are transparent.
func gorCellOf(info *types.Info, e ast.Expr) (gorCell, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		o := info.Defs[x]
		if o == nil {
			o = info.Uses[x]
		}
		if o == nil {
			return gorCell{}, false
		}
		if _, isPkg := o.(*types.PkgName); isPkg {
			return gorCell{}, false
		}
		return gorCell{root: o}, true
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				return gorCell{}, false
			}
		}
		base, ok := gorCellOf(info, x.X)
		if !ok {
			return gorCell{}, false
		}
		return gorCell{root: base.root, path: base.path + "." + x.Sel.Name}, true
	case *ast.IndexExpr:
		base, ok := gorCellOf(info, x.X)
		if !ok {
			return gorCell{}, false
		}
		return gorCell{root: base.root, path: base.path + dataflow.ElemSeg}, true
	case *ast.StarExpr:
		return gorCellOf(info, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return gorCellOf(info, x.X)
		}
	}
	return gorCell{}, false
}

// spawnMasks computes, once per program, which function-typed parameter
// positions of each function end up spawned on a goroutine — directly
// (`go f()`) or by forwarding to another spawn helper. The bottom-up
// fixpoint makes discovery transitive, so a funclit handed to a wrapper of
// a wrapper of `go f()` still counts as spawned.
func spawnMasks(prog *Program) map[*types.Func]uint64 {
	v := prog.Fact("goroutine.spawnmasks", func() any {
		g := prog.CallGraph()
		return dataflow.Fixpoint(g, func(n *callgraph.Node, get func(*types.Func) uint64) uint64 {
			info := n.Pkg.Info
			index := make(map[types.Object]int)
			for i, o := range paramObjs(info, n.Decl) {
				if o != nil {
					index[o] = i
				}
			}
			var mask uint64
			markParam := func(e ast.Expr) {
				id, ok := ast.Unparen(e).(*ast.Ident)
				if !ok {
					return
				}
				if i, ok := index[info.Uses[id]]; ok && i < 64 {
					mask |= 1 << uint(i)
				}
			}
			ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.GoStmt:
					markParam(x.Call.Fun)
				case *ast.CallExpr:
					callee := callgraph.StaticCallee(info, x)
					if callee == nil || g.Node(callee) == nil {
						return true
					}
					cm := get(callee)
					if cm == 0 {
						return true
					}
					for pos, arg := range callPositionArgs(info, x) {
						if pos < 64 && cm&(1<<uint(pos)) != 0 {
							markParam(arg)
						}
					}
				}
				return true
			})
			return mask
		}, func(a, b uint64) bool { return a == b })
	})
	return v.(map[*types.Func]uint64)
}

// callPositionArgs lists a call's argument expressions by callee parameter
// position, receiver first for method calls.
func callPositionArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			out = append(out, sel.X)
		}
	}
	return append(out, call.Args...)
}

// A spawnSite is one place a goroutine starts: a go statement, or a call
// handing a function value to a spawn helper.
type spawnSite struct {
	node ast.Node   // the go statement or spawning call, span included
	pos  token.Pos  // report anchor
	srcs []ast.Expr // expressions the goroutine can reach, in spawner scope
	lits []*ast.FuncLit
}

// spawnSitesIn discovers every spawn site in a function body, go
// statements inside deferred funclits included. For `go s.run()` the bound
// receiver is a reachable source; for `go f()` of a named function, the
// arguments are; for spawn-helper calls, each spawned argument value is.
func spawnSitesIn(info *types.Info, body *ast.BlockStmt, masks map[*types.Func]uint64) []spawnSite {
	// A go statement's call is the spawn itself, not an extra helper site.
	goCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		if g, ok := x.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		return true
	})
	var sites []spawnSite
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			site := spawnSite{node: x, pos: x.Pos()}
			switch fun := ast.Unparen(x.Call.Fun).(type) {
			case *ast.FuncLit:
				site.lits = append(site.lits, fun)
				site.srcs = append(site.srcs, fun)
			case *ast.SelectorExpr:
				if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal {
					site.srcs = append(site.srcs, fun.X) // bound receiver
				}
			}
			site.srcs = append(site.srcs, x.Call.Args...)
			sites = append(sites, site)
		case *ast.CallExpr:
			if goCalls[x] {
				return true
			}
			callee := callgraph.StaticCallee(info, x)
			if callee == nil {
				return true
			}
			m := masks[callee]
			if m == 0 {
				return true
			}
			site := spawnSite{node: x, pos: x.Pos()}
			for pos, arg := range callPositionArgs(info, x) {
				if pos >= 64 || m&(1<<uint(pos)) == 0 {
					continue
				}
				site.srcs = append(site.srcs, arg)
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					site.lits = append(site.lits, lit)
				}
			}
			if len(site.srcs) > 0 {
				sites = append(sites, site)
			}
		}
		return true
	})
	return sites
}

// A capture is one confined value a spawned goroutine can reach.
type capture struct {
	cell gorCell
	tn   *types.TypeName
	pos  token.Pos // the reaching expression, for fixture-precise reports
}

// confinedCaptures lists the confined cells a spawn site's goroutine can
// reach from its spawner: every confined-typed expression inside the
// site's source expressions whose root is a function-scoped variable owned
// by the spawner. Values declared inside the spawn construct itself (a
// System built inside the goroutine's own body) belong to the goroutine
// and are not captures — that is the per-attempt-construction clean
// pattern. Package-level state is out of scope here (globals are shared by
// construction and policed by noconcurrency's package gates).
func confinedCaptures(info *types.Info, set map[*types.TypeName]bool, pkgScope *types.Scope, site spawnSite) []capture {
	var caps []capture
	seen := make(map[gorCell]bool)
	for _, src := range site.srcs {
		ast.Inspect(src, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			tv, ok := info.Types[e]
			if !ok || tv.Type == nil {
				return true
			}
			tn := confinedOf(set, tv.Type)
			if tn == nil {
				return true
			}
			cell, ok := gorCellOf(info, e)
			if !ok || !spawnerOwned(cell.root, pkgScope, site.node) {
				return true
			}
			if !seen[cell] {
				seen[cell] = true
				caps = append(caps, capture{cell: cell, tn: tn, pos: e.Pos()})
			}
			return false // the outermost confined expression is the capture
		})
	}
	return caps
}

// spawnerOwned reports whether an object is a function-scoped variable
// declared outside the spawn construct — i.e. storage the spawner owns and
// the goroutine reaches by capture.
func spawnerOwned(o types.Object, pkgScope *types.Scope, spawn ast.Node) bool {
	v, ok := o.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if v.Parent() == nil || v.Parent() == pkgScope {
		return false
	}
	return v.Pos() < spawn.Pos() || v.Pos() >= spawn.End()
}
