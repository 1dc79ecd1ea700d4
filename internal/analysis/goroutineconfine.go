package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineConfine enforces the ownership discipline the fleet layer's
// determinism rests on: a confined value (a *psbox.System, a snapshot
// encoder, the obs bus, scenario RNG state — the seed list plus
// any type marked //psbox:confined) may be reachable from at most one
// goroutine at a time. Spawning a goroutine that captures a confined value
// — through a closure free variable, a call argument, or a bound method
// receiver — hands the value to that goroutine; a channel send does the
// same. After a handoff the spawner must not touch the value again, and no
// two live goroutines may capture the same value.
//
// The model is positional, not flow-sensitive: a spawner that provably
// rejoins the goroutine (wg.Wait, reading a done channel) before reusing
// the value is still reported and needs a reasoned
// //psbox:allow-goroutineconfine directive — see DESIGN.md rule 10 for
// the soundness caveats.
var GoroutineConfine = &Analyzer{
	Name: "goroutineconfine",
	Doc: `confined types (System, snapshot encoders, the obs bus,
scenario RNG state, //psbox:confined-marked types) must be reachable from
at most one goroutine at a time; channel send transfers ownership, and a
value captured by two live goroutines or reused by the spawner after
handoff is reported with the spawn site and the offending path.`,
	Run: runGoroutineConfine,
}

// A handoff is one ownership transfer out of the current function: a
// confined value captured by a spawned goroutine or sent on a channel.
type handoff struct {
	cap   capture
	node  ast.Node // the go statement, spawning call, or send statement
	pos   token.Pos
	spawn bool // goroutine capture; false = channel send
}

func runGoroutineConfine(pass *Pass) {
	set := confinedTypeSet(pass.Prog)
	if len(set) == 0 {
		return
	}
	masks := spawnMasks(pass.Prog)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkConfinement(pass, set, masks, fd)
		}
	}
}

func checkConfinement(pass *Pass, set map[*types.TypeName]bool, masks map[*types.Func]uint64, fd *ast.FuncDecl) {
	pkgScope := pass.Pkg.Scope()
	sites := spawnSitesIn(pass.Info, fd.Body, masks)

	var hs []handoff
	spawnedLits := make(map[*ast.FuncLit]bool)
	for _, site := range sites {
		for _, l := range site.lits {
			spawnedLits[l] = true
		}
		caps := confinedCaptures(pass.Info, set, pkgScope, site)
		for _, c := range caps {
			hs = append(hs, handoff{cap: c, node: site.node, pos: site.pos, spawn: true})
		}
		// A spawn inside a loop capturing a value declared outside the loop
		// puts one value in every iteration's goroutine: two live goroutines
		// as soon as the second iteration starts.
		if loop := enclosingLoop(fd.Body, site.node); loop != nil {
			for _, c := range caps {
				if v := c.cell.root; v.Pos() < loop.Pos() || v.Pos() >= loop.End() {
					pass.Reportf(site.pos,
						"goroutine spawned in a loop captures confined %s %s declared outside the loop; every iteration's goroutine shares it",
						confinedDesc(c.tn), c.cell.describe())
				}
			}
		}
	}

	// Channel sends of confined values transfer ownership too. Sends inside
	// a spawned goroutine's body are that goroutine's own handoffs, not the
	// spawner's.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && spawnedLits[lit] {
			return false
		}
		s, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		sendSite := spawnSite{node: s, srcs: []ast.Expr{s.Value}}
		for _, c := range confinedCaptures(pass.Info, set, pkgScope, sendSite) {
			hs = append(hs, handoff{cap: c, node: s, pos: s.Pos()})
		}
		return true
	})
	if len(hs) == 0 {
		return
	}
	for i := 1; i < len(hs); i++ { // keep source order across the two walks
		for j := i; j > 0 && hs[j].pos < hs[j-1].pos; j-- {
			hs[j], hs[j-1] = hs[j-1], hs[j]
		}
	}

	// Rule 1: the same confined cell handed off twice — captured by two
	// goroutines, or sent away again after an earlier transfer.
	line := func(p token.Pos) int { return pass.Fset.Position(p).Line }
	for j := range hs {
		for i := 0; i < j; i++ {
			if hs[i].node == hs[j].node || !cellsOverlap(hs[i].cap.cell, hs[j].cap.cell) {
				continue
			}
			if hs[i].spawn && hs[j].spawn {
				pass.Reportf(hs[j].pos,
					"confined %s %s is captured by two goroutines (spawned at line %d and line %d); a confined value may be reachable from at most one goroutine",
					confinedDesc(hs[j].cap.tn), hs[j].cap.cell.describe(), line(hs[i].pos), line(hs[j].pos))
			} else {
				pass.Reportf(hs[j].pos,
					"confined %s %s is handed off at line %d after its ownership was already transferred at line %d",
					confinedDesc(hs[j].cap.tn), hs[j].cap.cell.describe(), line(hs[j].pos), line(hs[i].pos))
			}
			break
		}
	}

	// Rule 2: the spawner touching a confined value after handing it off.
	// Uses inside spawned goroutine bodies are the new owner's; the handoff
	// constructs themselves were judged above.
	handoffNode := make(map[ast.Node]bool, len(hs))
	for _, h := range hs {
		handoffNode[h.node] = true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && spawnedLits[lit] {
			return false
		}
		if handoffNode[n] {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[e]
		if !ok || tv.Type == nil {
			return true
		}
		tn := confinedOf(set, tv.Type)
		if tn == nil {
			return true
		}
		cell, ok := gorCellOf(pass.Info, e)
		if !ok {
			return true
		}
		for _, h := range hs {
			if e.Pos() < h.node.End() || !cellsOverlap(cell, h.cap.cell) {
				continue
			}
			if h.spawn {
				pass.Reportf(e.Pos(),
					"confined %s %s is used by the spawner after being handed to the goroutine spawned at line %d; the handoff transferred ownership",
					confinedDesc(tn), cell.describe(), line(h.pos))
			} else {
				pass.Reportf(e.Pos(),
					"confined %s %s is used after being sent away on a channel at line %d; a channel send transfers ownership",
					confinedDesc(tn), cell.describe(), line(h.pos))
			}
			return false
		}
		return true
	})
}

// enclosingLoop returns the innermost for/range statement within body that
// contains the node, or nil.
func enclosingLoop(body *ast.BlockStmt, n ast.Node) ast.Stmt {
	var best ast.Stmt
	ast.Inspect(body, func(x ast.Node) bool {
		switch x.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			s := x.(ast.Stmt)
			if s.Pos() <= n.Pos() && n.End() <= s.End() {
				if best == nil || (s.Pos() >= best.Pos() && s.End() <= best.End()) {
					best = s
				}
			}
		}
		return true
	})
	return best
}
