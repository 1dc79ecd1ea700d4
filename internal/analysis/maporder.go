package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"psbox/internal/analysis/callgraph"
	"psbox/internal/analysis/dataflow"
)

// MapOrder flags range-over-map loops whose body does order-sensitive
// work: Go randomizes map iteration order per run, so anything the loop
// emits in iteration order diverges between two identically-seeded runs.
//
// Order-sensitive work is:
//
//   - appending to a slice declared outside the loop, unless the enclosing
//     function later sorts that slice (the collect-keys-then-sort idiom);
//   - writing output (fmt.Print/Fprint family, Write* methods);
//   - scheduling sim events (After/At/Schedule on a sim Engine);
//   - accumulating into an outer float, complex or string: float addition
//     is not associative, so the total depends on visit order.
//
// Accumulation is caught in two forms. An op-assign (sum += v) is flagged
// syntactically, with a sorted-keys rewrite as its fix. A plain
// assignment (sum = add(sum, v), or tmp := v * w; sum = sum + tmp) is
// flagged when the taint engine finds its right-hand side derived from
// both the loop's iteration variables and the accumulator's own previous
// value, with helper calls, cross-package ones included, mapped through
// walltaint's program-wide flow summaries. That read-modify-write half
// covers map ranges in function declarations, not in function literals.
//
// Pure reductions that are order-independent — integer sums, min/max
// tracking (min/max builtins and math.Min/math.Max included), per-key map
// writes (m[k] += ...), and rescaling the accumulator without reading the
// loop variables (sum = sum * 2) — stay legal.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: `flag order-sensitive work (appends without a sort, output writes,
sim-event scheduling, float/string accumulation, directly or through
locals and helper calls) inside range-over-map loops, where iteration
order is randomized per run.`,
	Run: runMapOrder,
}

var outputMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
}

var fmtOutputFuncs = map[string]bool{
	"Print":    true,
	"Printf":   true,
	"Println":  true,
	"Fprint":   true,
	"Fprintf":  true,
	"Fprintln": true,
}

var scheduleMethods = map[string]bool{
	"After":    true,
	"At":       true,
	"Schedule": true,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		// Track the innermost enclosing function so the sorted-later
		// check can scan its whole body.
		var funcs []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			switch n := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				funcs = append(funcs, n)
				// Popped lazily: enclosingFunc walks from the end and
				// checks position containment, so stale entries are
				// harmless.
			case *ast.RangeStmt:
				if isMapRange(pass, n) {
					checkMapRange(pass, n, enclosingFunc(funcs, n))
				}
			}
			return true
		})
	}
}

func isMapRange(pass *Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// enclosingFunc returns the innermost recorded function whose span
// contains the range statement.
func enclosingFunc(funcs []ast.Node, rng *ast.RangeStmt) ast.Node {
	for i := len(funcs) - 1; i >= 0; i-- {
		fn := funcs[i]
		if fn.Pos() <= rng.Pos() && rng.End() <= fn.End() {
			return fn
		}
	}
	return nil
}

// rootIdent strips selectors, indexes, parens, and derefs down to the
// base identifier of an assignable expression.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its object via either Uses or Defs.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// declaredWithin reports whether an object's declaration lies inside the
// node span (loop-local variables, including the range key and value).
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj != nil && n.Pos() <= obj.Pos() && obj.Pos() <= n.End()
}

// mentionsLoopVar reports whether the expression references any variable
// declared inside the range statement.
func mentionsLoopVar(pass *Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if declaredWithin(objOf(pass.Info, id), rng) {
				found = true
			}
		}
		return !found
	})
	return found
}

func checkMapRange(pass *Pass, rng *ast.RangeStmt, fn ast.Node) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, n, rng, fn)
		case *ast.CallExpr:
			checkCall(pass, n)
		}
		return true
	})
	if _, ok := fn.(*ast.FuncDecl); ok {
		checkReadModifyWrite(pass, rng)
	}
}

// accumKind names the order-sensitive accumulation a type admits: float
// and complex addition is not associative and string concatenation order
// is visible; integer sums are exact and stay legal.
func accumKind(t types.Type) (string, bool) {
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return "", false
	}
	switch {
	case basic.Info()&(types.IsFloat|types.IsComplex) != 0:
		return "float", true
	case basic.Info()&types.IsString != 0:
		return "string", true
	}
	return "", false
}

func checkAssign(pass *Pass, as *ast.AssignStmt, rng *ast.RangeStmt, fn ast.Node) {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		// Plain assignment: only the append-to-outer-slice idiom leaks
		// order (out = append(out, k)).
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
				continue
			}
			root := rootIdent(as.Lhs[i])
			if root == nil {
				continue
			}
			obj := objOf(pass.Info, root)
			if obj == nil || declaredWithin(obj, rng) {
				continue
			}
			if sortedInFunc(pass, fn, obj) {
				continue
			}
			pass.Reportf(as.Pos(),
				"append to %s inside range over map records iteration order; sort %s afterwards or iterate sorted keys", root.Name, root.Name)
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		// Op-assign accumulation: order-dependent when the accumulator
		// is a float (non-associative addition) or string (concatenation
		// order) living outside the loop. Per-key writes indexed by a
		// loop variable are order-independent and stay legal.
		lhs := as.Lhs[0]
		tv, ok := pass.Info.Types[lhs]
		if !ok || tv.Type == nil {
			return
		}
		kind, ok := accumKind(tv.Type)
		if !ok {
			return
		}
		if idx, ok := lhs.(*ast.IndexExpr); ok && mentionsLoopVar(pass, idx.Index, rng) {
			return
		}
		root := rootIdent(lhs)
		if root == nil {
			return
		}
		obj := objOf(pass.Info, root)
		if obj == nil || declaredWithin(obj, rng) {
			return
		}
		pass.Report(as.Pos(),
			fmt.Sprintf("%s accumulation into %s inside range over map depends on iteration order; iterate sorted keys", kind, exprText(lhs)),
			sortedKeysFix(pass, rng, fn)...)
	}
}

// loopKind is the Kinds bit marking "derived from this loop's iteration
// variables": the first bit past walltaint's source kinds, which the flow
// summaries carry in, so a helper's own clock read never looks
// loop-derived.
const loopKind = len(wallTaintKindNames)

// checkReadModifyWrite is the dataflow half of the accumulation rule. The
// engine runs over the loop body only: the read-modify-write cycle being
// hunted lives entirely inside the loop, and scoping out the rest of the
// function keeps the surrounding code's writes from feeding the
// accumulator's identity back into the container being ranged over.
func checkReadModifyWrite(pass *Pass, rng *ast.RangeStmt) {
	info := pass.Info

	// Candidates: plain writes to a float, complex or string variable
	// declared outside the loop. Writes through an index or field are
	// per-key and order-free. Each accumulator gets a private Param bit as
	// its identity through the engine.
	type write struct {
		as *ast.AssignStmt
		i  int
	}
	var writes []write
	bit := make(map[types.Object]int)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := objOf(info, id)
			if obj == nil || declaredWithin(obj, rng) {
				continue
			}
			if _, ok := accumKind(obj.Type()); !ok {
				continue
			}
			if _, seen := bit[obj]; !seen && len(bit) < 64 {
				bit[obj] = len(bit)
			}
			writes = append(writes, write{as, i})
		}
		return true
	})
	if len(bit) == 0 {
		return
	}

	seed := make(map[types.Object]dataflow.Labels)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id := rootIdent(e); id != nil {
			if o := objOf(info, id); o != nil {
				seed[o] = dataflow.Kind(loopKind)
			}
		}
	}
	for o, b := range bit {
		seed[o] = seed[o].Union(dataflow.Param(b))
	}
	g := pass.Prog.CallGraph()
	sums := wallTaintSummaries(pass.Prog)
	a := dataflow.Run(info, rng.Body, seed, dataflow.Hooks{
		Call: func(call *ast.CallExpr, args *dataflow.CallArgs) (dataflow.Value, bool) {
			if orderFree(info, call) {
				// min/max reductions are commutative and exact: the
				// result no longer depends on visit order.
				var l dataflow.Labels
				for i := 0; i < args.NumParams(); i++ {
					l = l.Union(args.Labels(i))
				}
				l.Kinds = 0
				out := dataflow.Value{}
				if !l.Empty() {
					out[""] = l
				}
				return out, true
			}
			callee := callgraph.StaticCallee(info, call)
			if callee == nil || g.Node(callee) == nil {
				return nil, false
			}
			return sums[callee].flow.Apply(args), true
		},
	})

	reported := make(map[types.Object]bool)
	for _, w := range writes {
		id := w.as.Lhs[w.i].(*ast.Ident)
		obj := objOf(info, id)
		b, isCand := bit[obj]
		if !isCand || reported[obj] {
			continue
		}
		var rhs ast.Expr
		switch {
		case len(w.as.Rhs) == len(w.as.Lhs):
			rhs = w.as.Rhs[w.i]
		case len(w.as.Rhs) == 1:
			rhs = w.as.Rhs[0]
		default:
			continue
		}
		l := a.Expr(rhs)
		if l.Kinds&(1<<loopKind) == 0 || l.Params&(1<<uint(b)) == 0 {
			continue
		}
		reported[obj] = true
		kind, _ := accumKind(obj.Type())
		pass.Reportf(w.as.Pos(),
			"%s accumulation into %s depends on map iteration order (value flows through intermediates back into %s); iterate sorted keys", kind, id.Name, id.Name)
	}
}

// orderFree matches the builtin min/max and math.Min/math.Max calls whose
// results are independent of reduction order.
func orderFree(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			return b.Name() == "min" || b.Name() == "max"
		}
	case *ast.SelectorExpr:
		if name, ok := qualifiedName(info, fun, "math"); ok {
			return name == "Min" || name == "Max"
		}
	}
	return false
}

// sortedKeysFix rewrites a range-over-map loop into the
// collect-keys/sort/iterate idiom, splicing the original body unchanged:
//
//	keys := make([]string, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.Strings(keys)
//	for _, k := range keys {
//		v := m[k]
//		...original body...
//	}
//
// Offered only for the simple forms where the rewrite is provably safe: a
// `:=` range over a plain map identifier with string keys, named key
// variable, identifier (or omitted) value variable, a free `keys` name in
// the enclosing function, and an import block that can absorb "sort".
func sortedKeysFix(pass *Pass, rng *ast.RangeStmt, fn ast.Node) []SuggestedFix {
	if rng.Tok != token.DEFINE {
		return nil
	}
	mapIdent, ok := rng.X.(*ast.Ident)
	if !ok {
		return nil
	}
	tv, ok := pass.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return nil
	}
	mt, ok := tv.Type.Underlying().(*types.Map)
	if !ok {
		return nil
	}
	if kb, ok := mt.Key().Underlying().(*types.Basic); !ok || kb.Kind() != types.String {
		return nil
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return nil
	}
	valName := ""
	if rng.Value != nil {
		v, ok := rng.Value.(*ast.Ident)
		if !ok {
			return nil
		}
		if v.Name != "_" {
			valName = v.Name
		}
	}
	if fn == nil || identUsed(fn, "keys") {
		return nil
	}
	file := fileAt(pass, rng.Pos())
	if file == nil {
		return nil
	}
	importEdit, ok := ensureImport(pass, file, "sort")
	if !ok {
		return nil
	}
	_, ind, ok := pass.lineStart(rng.Pos())
	if !ok {
		return nil
	}
	src := pass.sourceFile(pass.Fset.Position(rng.Pos()).Filename)
	lb := pass.Fset.Position(rng.Body.Lbrace).Offset
	rb := pass.Fset.Position(rng.Body.Rbrace).Offset
	if src == nil || lb+1 >= rb || rb > len(src) {
		return nil
	}
	body := string(src[lb+1 : rb])
	m := mapIdent.Name
	var sb strings.Builder
	fmt.Fprintf(&sb, "keys := make([]string, 0, len(%s))\n", m)
	fmt.Fprintf(&sb, "%sfor %s := range %s {\n", ind, key.Name, m)
	fmt.Fprintf(&sb, "%s\tkeys = append(keys, %s)\n", ind, key.Name)
	fmt.Fprintf(&sb, "%s}\n", ind)
	fmt.Fprintf(&sb, "%ssort.Strings(keys)\n", ind)
	fmt.Fprintf(&sb, "%sfor _, %s := range keys {", ind, key.Name)
	if valName != "" {
		fmt.Fprintf(&sb, "\n%s\t%s := %s[%s]", ind, valName, m, key.Name)
	}
	sb.WriteString(body)
	sb.WriteString("}")
	edits := []TextEdit{pass.edit(rng.Pos(), rng.End(), sb.String())}
	if importEdit != nil {
		edits = append(edits, *importEdit)
	}
	return []SuggestedFix{{Message: "iterate the map in sorted key order", Edits: edits}}
}

// identUsed reports whether any identifier named name appears in the node.
func identUsed(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// fileAt returns the pass file containing pos.
func fileAt(pass *Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.Pos() <= pos && pos <= f.End() {
			return f
		}
	}
	return nil
}

// ensureImport returns the edit inserting path into the file's import
// block in sorted position — nil when the import already exists — or
// ok=false when the file has no parenthesized block to extend (the
// single-import form is not rewritten).
func ensureImport(pass *Pass, f *ast.File, path string) (*TextEdit, bool) {
	quoted := `"` + path + `"`
	for _, imp := range f.Imports {
		if imp.Path.Value == quoted {
			return nil, true
		}
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		if !gd.Lparen.IsValid() {
			continue
		}
		insertAt := gd.Rparen
		for _, spec := range gd.Specs {
			if spec.(*ast.ImportSpec).Path.Value > quoted {
				insertAt = spec.Pos()
				break
			}
		}
		start, _, ok := pass.lineStart(insertAt)
		if !ok {
			return nil, false
		}
		pos := pass.Fset.Position(insertAt)
		return &TextEdit{File: pos.Filename, Start: start, End: start, New: "\t" + quoted + "\n"}, true
	}
	return nil, false
}

func checkCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if n, ok := qualifiedName(pass.Info, sel, "fmt"); ok {
		if fmtOutputFuncs[n] {
			pass.Reportf(call.Pos(),
				"fmt.%s inside range over map emits output in iteration order; iterate sorted keys", n)
		}
		return
	}
	if id, ok := sel.X.(*ast.Ident); ok && pkgNameOf(pass.Info, id) != "" {
		return // other package-qualified call, not a method
	}
	if outputMethods[name] {
		pass.Reportf(call.Pos(),
			"%s inside range over map emits output in iteration order; iterate sorted keys", name)
		return
	}
	if scheduleMethods[name] && isEngineReceiver(pass, sel.X) {
		pass.Reportf(call.Pos(),
			"sim event scheduled inside range over map: event sequence numbers will follow iteration order; iterate sorted keys")
	}
}

// isEngineReceiver reports whether an expression is (a pointer to) a named
// type called Engine — the sim engine, in either the real tree or fixtures.
func isEngineReceiver(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Engine"
}

// sortedInFunc reports whether the enclosing function contains a
// sort.* / slices.Sort* call whose argument is rooted at obj — the
// collect-then-sort idiom that makes map-order appends deterministic.
func sortedInFunc(pass *Pass, fn ast.Node, obj types.Object) bool {
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		pkg, okq := "", false
		if id, ok := sel.X.(*ast.Ident); ok {
			pkg = pkgNameOf(pass.Info, id)
			okq = pkg == "sort" || (pkg == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort"))
		}
		if !okq {
			return !found
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil && objOf(pass.Info, root) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// exprText renders a short source-ish form of an assignable expression for
// diagnostics.
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.ParenExpr:
		return exprText(x.X)
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	default:
		return "expression"
	}
}
