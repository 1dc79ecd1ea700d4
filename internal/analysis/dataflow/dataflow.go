// Package dataflow provides the value-flow machinery shared by the
// interprocedural analyzers: an access-path taint engine that runs over
// one function at a time, and a bottom-up summary fixpoint that runs a
// per-function transfer over the call graph in callee-before-caller order.
//
// The engine is flow-insensitive within a function (a cell's label set is
// the union over all its assignments) but *field-sensitive*: labels live
// in cells keyed by (root object, access path), where a path is a bounded
// chain of field selections with map/slice/array elements collapsed into
// one summary slot. Writing wall-clock taint into x.a therefore no longer
// labels x.b, and a taint stored into one field of a heap object survives
// the round-trip through a setter/getter pair with per-field precision at
// the boundaries of the analyzed program. Function literals are traversed,
// so flows through captured closure variables are tracked; pointers are
// path-transparent (a value and a pointer to it share cells), which
// over-approximates aliasing in the usual sound direction.
//
// Remaining deliberate over-approximations: at call boundaries a
// parameter's labels map through summaries at whole-argument granularity
// (per-field precision is kept for return paths and for heap store
// effects, not for which sub-path of an argument flowed); paths deeper
// than MaxPathDepth truncate to their prefix; and calls through function
// values stay unresolved and fall back to "result inherits every argument
// label". The analyzers built on top police contracts where a false
// positive is a reviewable directive and a false negative is a silent
// nondeterminism bug, so every approximation rounds toward reporting.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"psbox/internal/analysis/callgraph"
)

// Labels is an element of the taint lattice: two bitsets whose meaning
// each analyzer chooses. walltaint uses Kinds for wall-clock/env/pid/%p
// sources and Params for "flows from parameter i"; maporder uses the
// first Kinds bit past walltaint's for "derived from the loop" and Params
// for accumulator identity.
type Labels struct {
	Kinds  uint64
	Params uint64
}

// Union returns the least upper bound of two label sets.
func (l Labels) Union(m Labels) Labels {
	return Labels{Kinds: l.Kinds | m.Kinds, Params: l.Params | m.Params}
}

// Empty reports whether no label is set.
func (l Labels) Empty() bool { return l.Kinds == 0 && l.Params == 0 }

// Param returns the label set carrying just parameter bit i (capped at 64
// parameters; beyond that flows are dropped, never invented).
func Param(i int) Labels {
	if i < 0 || i >= 64 {
		return Labels{}
	}
	return Labels{Params: 1 << uint(i)}
}

// Kind returns the label set carrying just source-kind bit i.
func Kind(i int) Labels {
	if i < 0 || i >= 64 {
		return Labels{}
	}
	return Labels{Kinds: 1 << uint(i)}
}

// MaxPathDepth bounds access-path length in segments. A write deeper than
// the cap truncates to its MaxPathDepth-segment prefix, which a read at
// any depth below that prefix still observes (prefix cells cover their
// whole subtree), so truncation loses precision, never flows.
const MaxPathDepth = 3

// ElemSeg is the path segment summarizing every element of a map, slice,
// array, or channel. All elements share one cell: index expressions are
// not distinguished.
const ElemSeg = ".[]"

// A Value is the per-path label map of one expression or cell tree. The
// empty path "" labels the whole value; ".f" labels field f; ".f.[]"
// labels the elements of the collection in field f. Values are built
// fresh by every operation — never alias one into engine state.
type Value map[string]Labels

// join adds labels at path, truncating to MaxPathDepth.
func (v Value) join(path string, l Labels) {
	if l.Empty() {
		return
	}
	v[truncPath(path)] = v[truncPath(path)].Union(l)
}

// Flatten unions every path's labels: the labels of "any part of" the
// value.
func (v Value) Flatten() Labels {
	var l Labels
	for _, m := range v {
		l = l.Union(m)
	}
	return l
}

// Select projects the value through one path segment: reading x.f from
// x's value keeps the ".f" subtree (rebased) plus the whole-value labels
// at "" (a label on all of x covers every field).
func (v Value) Select(seg string) Value {
	out := make(Value, len(v))
	for p, l := range v {
		switch {
		case p == "":
			out.join("", l)
		case p == seg:
			out.join("", l)
		default:
			if rest, ok := strings.CutPrefix(p, seg); ok && strings.HasPrefix(rest, ".") {
				out.join(rest, l)
			}
		}
	}
	return out
}

// Prefixed rebases every path under seg: the value of an expression being
// written into field f lands in the ".f" subtree.
func (v Value) Prefixed(seg string) Value {
	out := make(Value, len(v))
	for p, l := range v {
		out.join(seg+p, l)
	}
	return out
}

// truncPath caps a path at MaxPathDepth segments. Every segment starts
// with '.', and field names cannot contain '.', so segment count is the
// dot count.
func truncPath(path string) string {
	depth := 0
	for i := 0; i < len(path); i++ {
		if path[i] != '.' {
			continue
		}
		depth++
		if depth > MaxPathDepth {
			return path[:i]
		}
	}
	return path
}

// fieldSeg renders a field-selection path segment.
func fieldSeg(name string) string { return "." + name }

// CallArgs is the engine's view of one call site, handed to the Call
// hook: per-position argument labels (receiver first for methods,
// variadic arguments folded into the last position) and a Store effect
// for callee summaries that write through pointer-like parameters.
type CallArgs struct {
	a     *Analysis
	exprs [][]ast.Expr
}

// NumParams reports how many parameter positions the call binds (receiver
// included for methods).
func (c *CallArgs) NumParams() int { return len(c.exprs) }

// Labels returns the flattened labels of the value bound to position i.
func (c *CallArgs) Labels(i int) Labels { return c.Value(i).Flatten() }

// Value returns the per-path labels of the value bound to position i.
func (c *CallArgs) Value(i int) Value {
	out := Value{}
	if i < 0 || i >= len(c.exprs) {
		return out
	}
	for _, e := range c.exprs[i] {
		for p, l := range c.a.ExprValue(e) {
			out.join(p, l)
		}
	}
	return out
}

// Store joins labels into path under the cell the position-i argument
// roots in — the caller-side effect of a callee that writes through a
// pointer-like parameter. Arguments with no addressable root (call
// results, literals) drop the store.
func (c *CallArgs) Store(i int, path string, l Labels) {
	if l.Empty() || i < 0 || i >= len(c.exprs) {
		return
	}
	for _, e := range c.exprs[i] {
		for _, ref := range c.a.lvals(e) {
			c.a.joinCell(ref.obj, ref.path+path, l)
		}
	}
}

// Hooks parameterizes the engine with analyzer-specific transfer
// functions.
type Hooks struct {
	// Source returns the labels a call expression introduces out of thin
	// air (time.Now, os.Getenv, ...). May be nil.
	Source func(call *ast.CallExpr) Labels
	// Call maps argument labels through a call, typically by applying a
	// callee summary via Summary.Apply. Returning handled=false applies
	// the conservative default: the union of the receiver's and every
	// argument's labels flows, flattened, to the result.
	Call func(call *ast.CallExpr, args *CallArgs) (ret Value, handled bool)
}

// A cellRef addresses one cell subtree: the path under an object's tree.
type cellRef struct {
	obj  types.Object
	path string
}

// Analysis holds the per-function fixpoint result.
type Analysis struct {
	info    *types.Info
	hooks   Hooks
	cells   map[types.Object]Value
	aliases map[types.Object][]cellRef
	ret     Value
	body    *ast.BlockStmt
	changed bool
}

// Run computes label cells for every local object of fn's body, starting
// from the seed map (typically parameters and analyzer-chosen roots,
// seeded at the whole-object path). The seed map is not mutated. Function
// literal bodies are traversed, so writes to captured variables
// propagate; returns inside literals do not count toward the outer
// function's return labels.
func Run(info *types.Info, body *ast.BlockStmt, seed map[types.Object]Labels, hooks Hooks) *Analysis {
	a := &Analysis{
		info:    info,
		hooks:   hooks,
		cells:   make(map[types.Object]Value, len(seed)),
		aliases: make(map[types.Object][]cellRef),
		body:    body,
	}
	for o, l := range seed {
		a.joinCell(o, "", l)
	}
	if body == nil {
		return a
	}
	for {
		a.changed = false
		a.propagate()
		if !a.changed {
			break
		}
	}
	// Return labels: every return expression outside function literals,
	// per-path.
	a.ret = Value{}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, e := range n.Results {
				for p, l := range a.ExprValue(e) {
					a.ret.join(p, l)
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return a
}

// Return reports the flattened labels reaching the function's return
// values.
func (a *Analysis) Return() Labels { return a.ret.Flatten() }

// ReturnValue reports the per-path labels reaching the function's return
// values.
func (a *Analysis) ReturnValue() Value {
	out := Value{}
	for p, l := range a.ret {
		out.join(p, l)
	}
	return out
}

// Of reports the flattened labels of one object across all its paths.
func (a *Analysis) Of(o types.Object) Labels {
	var l Labels
	for _, m := range a.cells[o] {
		l = l.Union(m)
	}
	return l
}

// covers reports whether a cell at path p speaks for a read at path q:
// p == q or p is a proper segment-prefix of q.
func covers(p, q string) bool {
	if p == q {
		return true
	}
	rest, ok := strings.CutPrefix(q, p)
	return ok && strings.HasPrefix(rest, ".")
}

// joinCell adds labels into one cell, flagging the pass dirty on growth.
func (a *Analysis) joinCell(o types.Object, path string, l Labels) {
	if o == nil || l.Empty() {
		return
	}
	path = truncPath(path)
	v := a.cells[o]
	if v == nil {
		v = Value{}
		a.cells[o] = v
	}
	old := v[path]
	nw := old.Union(l)
	if nw != old {
		v[path] = nw
		a.changed = true
	}
}

// propagate performs one monotone pass over the body (function literals
// included).
func (a *Analysis) propagate() {
	ast.Inspect(a.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			a.assign(n)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					} else if len(vs.Values) == 1 {
						rhs = vs.Values[0]
					} else {
						continue
					}
					a.write(a.defOrUse(name), "", a.ExprValue(rhs))
				}
			}
		case *ast.RangeStmt:
			// Ranging over a labeled collection labels the elements: the
			// value variable sees the element subtree, the key the
			// flattened collection (keys are not tracked separately).
			v := a.ExprValue(n.X)
			if k := rootObj(a.info, n.Key); k != nil {
				a.joinCell(k, "", v.Flatten())
			}
			if val := rootObj(a.info, n.Value); val != nil {
				a.write(val, "", v.Select(ElemSeg))
			}
		case *ast.TypeSwitchStmt:
			var x ast.Expr
			switch as := n.Assign.(type) {
			case *ast.AssignStmt:
				if ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr); ok {
					x = ta.X
				}
			case *ast.ExprStmt:
				if ta, ok := ast.Unparen(as.X).(*ast.TypeAssertExpr); ok {
					x = ta.X
				}
			}
			if x != nil {
				v := a.ExprValue(x)
				for _, cl := range n.Body.List {
					a.write(a.info.Implicits[cl], "", v)
				}
			}
		case *ast.ExprStmt:
			// Evaluate bare calls so their hook store effects (a setter
			// writing taint into a receiver field) land even though no
			// assignment consumes the result.
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				a.ExprValue(call)
			}
		case *ast.ReturnStmt:
			// Evaluate results inside the fixpoint: a store effect reached
			// only through `return f(...)` must grow cells that reads
			// elsewhere in the body see.
			for _, e := range n.Results {
				a.ExprValue(e)
			}
		case *ast.DeferStmt:
			a.ExprValue(n.Call)
		case *ast.GoStmt:
			a.ExprValue(n.Call)
		}
		return true
	})
}

// write joins a whole Value under an object's path.
func (a *Analysis) write(o types.Object, base string, v Value) {
	if o == nil {
		return
	}
	for p, l := range v {
		a.joinCell(o, base+p, l)
	}
}

func (a *Analysis) assign(as *ast.AssignStmt) {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
	default:
		// Op-assign (+=, -=, ...): scalar result; the flattened RHS joins
		// the LHS cell. The accumulator keeps its old labels
		// (flow-insensitive, no kill).
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			for _, ref := range a.lvals(as.Lhs[0]) {
				a.joinCell(ref.obj, ref.path, a.ExprValue(as.Rhs[0]).Flatten())
			}
		}
		return
	}
	// Multi-value call on the right: every left-hand side receives the
	// call's full value (per-position tuple structure is not tracked).
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		v := a.ExprValue(as.Rhs[0])
		for _, lhs := range as.Lhs {
			for _, ref := range a.lvals(lhs) {
				a.write(ref.obj, ref.path, v)
			}
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		a.recordAlias(lhs, as.Rhs[i])
		for _, ref := range a.lvals(lhs) {
			a.write(ref.obj, ref.path, a.ExprValue(as.Rhs[i]))
		}
	}
}

// recordAlias makes a plain `p := &v` (or a copy of such a pointer,
// `q := p`) resolve writes through p onto v's cells — the
// path-transparency that lets a taint stored through a pointer surface
// when the pointee is read directly. Reassigning a pointer accumulates
// targets (join, no kill), rounding toward reporting.
func (a *Analysis) recordAlias(lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	o := a.defOrUse(id)
	if o == nil {
		return
	}
	switch r := ast.Unparen(rhs).(type) {
	case *ast.UnaryExpr:
		if r.Op == token.AND {
			for _, ref := range a.lvals(r.X) {
				a.addAlias(o, ref)
			}
		}
	case *ast.Ident:
		ro := a.defOrUse(r)
		for _, ref := range a.aliases[ro] {
			a.addAlias(o, ref)
		}
	}
}

func (a *Analysis) addAlias(o types.Object, ref cellRef) {
	if ref.obj == o || ref.obj == nil {
		return
	}
	for _, ex := range a.aliases[o] {
		if ex == ref {
			return
		}
	}
	a.aliases[o] = append(a.aliases[o], ref)
	a.changed = true
}

func (a *Analysis) defOrUse(id *ast.Ident) types.Object {
	if o := a.info.Defs[id]; o != nil {
		return o
	}
	return a.info.Uses[id]
}

// lvals resolves an assignable expression to the cell subtrees it
// addresses: x → {(x, "")} (or its alias targets when x is a tracked
// pointer), x.f → base + ".f", x[i] → base + ".[]"; *x, &x, and (x) are
// transparent. Package-qualified selectors (globals) and expressions with
// no addressable root resolve to nothing.
func (a *Analysis) lvals(e ast.Expr) []cellRef {
	switch x := e.(type) {
	case *ast.Ident:
		o := a.defOrUse(x)
		if o == nil {
			return nil
		}
		if _, isPkg := o.(*types.PkgName); isPkg {
			return nil
		}
		if refs := a.aliases[o]; len(refs) > 0 {
			return refs
		}
		return []cellRef{{obj: o}}
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := a.info.Uses[id].(*types.PkgName); isPkg {
				return nil
			}
		}
		return extendRefs(a.lvals(x.X), fieldSeg(x.Sel.Name))
	case *ast.IndexExpr:
		return extendRefs(a.lvals(x.X), ElemSeg)
	case *ast.ParenExpr:
		return a.lvals(x.X)
	case *ast.StarExpr:
		return a.lvals(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return a.lvals(x.X)
		}
	}
	return nil
}

func extendRefs(refs []cellRef, seg string) []cellRef {
	if len(refs) == 0 {
		return nil
	}
	out := make([]cellRef, len(refs))
	for i, r := range refs {
		out[i] = cellRef{obj: r.obj, path: r.path + seg}
	}
	return out
}

// valueAt reads the Value visible at one cell subtree: the subtree's own
// cells rebased to the root, plus any prefix cell covering it.
func (a *Analysis) valueAt(ref cellRef) Value {
	out := Value{}
	for p, l := range a.cells[ref.obj] {
		switch {
		case p == ref.path:
			out.join("", l)
		case covers(ref.path, p):
			out.join(p[len(ref.path):], l)
		case covers(p, ref.path):
			out.join("", l)
		}
	}
	return out
}

// rootObj resolves an assignable expression to the object whose storage it
// roots in, ignoring the path.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if o := info.Defs[x]; o != nil {
				return o
			}
			return info.Uses[x]
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return nil
				}
			}
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

// Expr evaluates the flattened labels of an expression under the current
// cell state.
func (a *Analysis) Expr(e ast.Expr) Labels { return a.ExprValue(e).Flatten() }

// ExprValue evaluates the per-path labels of an expression under the
// current cell state.
func (a *Analysis) ExprValue(e ast.Expr) Value {
	switch e := e.(type) {
	case nil:
		return Value{}
	case *ast.Ident:
		out := Value{}
		o := a.defOrUse(e)
		if o == nil {
			return out
		}
		for p, l := range a.cells[o] {
			out.join(p, l)
		}
		// A tracked pointer also reads its targets' cells: after
		// p := &v, p.f sees what v.f holds.
		for _, ref := range a.aliases[o] {
			for p, l := range a.valueAt(ref) {
				out.join(p, l)
			}
		}
		return out
	case *ast.BasicLit, *ast.FuncLit:
		return Value{}
	case *ast.ParenExpr:
		return a.ExprValue(e.X)
	case *ast.StarExpr:
		return a.ExprValue(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return a.ExprValue(e.X) // &x shares x's cells (path-transparent)
		}
		return flat(a.ExprValue(e.X))
	case *ast.BinaryExpr:
		out := flat(a.ExprValue(e.X))
		out.join("", a.ExprValue(e.Y).Flatten())
		return out
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := a.info.Uses[id].(*types.PkgName); isPkg {
				return Value{} // pkg.Name: a global, unlabeled by default
			}
		}
		return a.ExprValue(e.X).Select(fieldSeg(e.Sel.Name))
	case *ast.IndexExpr:
		return a.ExprValue(e.X).Select(ElemSeg)
	case *ast.IndexListExpr:
		return a.ExprValue(e.X)
	case *ast.SliceExpr:
		return a.ExprValue(e.X) // slicing preserves element structure
	case *ast.TypeAssertExpr:
		return a.ExprValue(e.X)
	case *ast.CompositeLit:
		return a.composite(e)
	case *ast.CallExpr:
		return a.call(e)
	default:
		return Value{}
	}
}

// flat collapses a value to its flattened labels at the root path.
func flat(v Value) Value {
	out := Value{}
	out.join("", v.Flatten())
	return out
}

// composite evaluates a composite literal per-field: S{a: x} places x's
// labels in the ".a" subtree, slice/map literals place element labels in
// ".[]", and unkeyed struct literals resolve positions through the type.
func (a *Analysis) composite(e *ast.CompositeLit) Value {
	out := Value{}
	var st *types.Struct
	if tv, ok := a.info.Types[e]; ok && tv.Type != nil {
		st, _ = tv.Type.Underlying().(*types.Struct)
	}
	for i, el := range e.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if st != nil {
				if id, ok := kv.Key.(*ast.Ident); ok {
					for p, l := range a.ExprValue(kv.Value).Prefixed(fieldSeg(id.Name)) {
						out.join(p, l)
					}
					continue
				}
			}
			// Map literal (or unresolvable key): key labels flatten into
			// the element slot alongside the value's subtree.
			out.join(ElemSeg, a.ExprValue(kv.Key).Flatten())
			for p, l := range a.ExprValue(kv.Value).Prefixed(ElemSeg) {
				out.join(p, l)
			}
			continue
		}
		seg := ElemSeg
		if st != nil && i < st.NumFields() {
			seg = fieldSeg(st.Field(i).Name())
		}
		for p, l := range a.ExprValue(el).Prefixed(seg) {
			out.join(p, l)
		}
	}
	return out
}

func (a *Analysis) call(call *ast.CallExpr) Value {
	// A conversion T(x) passes x's value through unchanged, field
	// structure included.
	if tv, ok := a.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return a.ExprValue(call.Args[0])
		}
		return Value{}
	}
	out := Value{}
	if a.hooks.Source != nil {
		out.join("", a.hooks.Source(call))
	}
	if a.hooks.Call != nil {
		args := &CallArgs{a: a, exprs: a.paramExprs(call)}
		if ret, handled := a.hooks.Call(call, args); handled {
			for p, l := range ret {
				out.join(p, l)
			}
			return out
		}
	}
	// Conservative default: everything flowing in may flow out,
	// flattened. This is what makes laundering a wall-clock value through
	// fmt.Sprintf or strings.TrimSpace still count as tainted.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		out.join("", a.ExprValue(sel.X).Flatten())
	}
	for _, arg := range call.Args {
		out.join("", a.ExprValue(arg).Flatten())
	}
	return out
}

// ArgLabels returns the flattened labels of the value bound to callee
// parameter position i: position 0 is the method receiver when the call's
// callee is a method, and every variadic argument folds into the final
// position. Field selections in argument expressions resolve precisely:
// passing s.clean carries only s.clean's cells, not its siblings'.
func (a *Analysis) ArgLabels(call *ast.CallExpr, i int) Labels {
	args := &CallArgs{a: a, exprs: a.paramExprs(call)}
	return args.Labels(i)
}

// NumParams reports how many parameter positions the call binds (receiver
// included for methods).
func (a *Analysis) NumParams(call *ast.CallExpr) int { return len(a.paramExprs(call)) }

// paramExprs groups a call's receiver and argument expressions by callee
// parameter position.
func (a *Analysis) paramExprs(call *ast.CallExpr) [][]ast.Expr {
	var out [][]ast.Expr
	sig := calleeSignature(a.info, call)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := a.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			out = append(out, []ast.Expr{sel.X})
		}
	}
	if sig == nil {
		for _, arg := range call.Args {
			out = append(out, []ast.Expr{arg})
		}
		return out
	}
	np := sig.Params().Len()
	recv := len(out) // 1 when a receiver entry is present
	for i, arg := range call.Args {
		slot := i
		if sig.Variadic() && slot >= np-1 {
			slot = np - 1
		}
		slot += recv
		if slot < len(out) {
			out[slot] = append(out[slot], arg)
		} else {
			out = append(out, []ast.Expr{arg})
		}
	}
	return out
}

func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	if tv, ok := info.Types[call.Fun]; ok && tv.Type != nil {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// A StoreKey addresses one heap store effect of a function: labels
// written into the Path subtree of the parameter at position Param.
type StoreKey struct {
	Param int
	Path  string
}

// A Summary is one function's bottom-up interprocedural fact set: which
// labels reach each access path of its return values, and which labels it
// stores through pointer-like parameters (the heap effects a caller must
// replay on its own cells). Params bits inside the labels refer to the
// function's own parameter positions and are resolved to argument labels
// at each call site by Apply.
type Summary struct {
	Ret    map[string]Labels
	Stores map[StoreKey]Labels
}

// Equal reports whether two summaries carry identical facts.
func (s Summary) Equal(o Summary) bool {
	if len(s.Ret) != len(o.Ret) || len(s.Stores) != len(o.Stores) {
		return false
	}
	for p, l := range s.Ret {
		if o.Ret[p] != l {
			return false
		}
	}
	for k, l := range s.Stores {
		if o.Stores[k] != l {
			return false
		}
	}
	return true
}

// Apply maps a summary through one call site: store effects replay onto
// the caller's argument cells, and the returned Value carries the
// summary's per-path return labels with parameter bits resolved to the
// matching arguments' labels.
func (s Summary) Apply(args *CallArgs) Value {
	for k, l := range s.Stores {
		args.Store(k.Param, k.Path, resolveParams(l, args))
	}
	out := Value{}
	for p, l := range s.Ret {
		out.join(p, resolveParams(l, args))
	}
	return out
}

// resolveParams substitutes each parameter bit with the flattened labels
// of the matching argument position; kind bits pass through.
func resolveParams(l Labels, args *CallArgs) Labels {
	out := Labels{Kinds: l.Kinds}
	for i := 0; i < 64 && i < args.NumParams(); i++ {
		if l.Params&(1<<uint(i)) != 0 {
			out = out.Union(args.Labels(i))
		}
	}
	return out
}

// Summarize extracts a function's Summary from its completed analysis.
// params lists the function's parameter objects by position (receiver
// first); storable reports whether writes through position i escape to
// the caller (pointer-like types: pointer receiver/parameter, map, slice,
// channel, interface).
func (a *Analysis) Summarize(params []types.Object, storable func(i int) bool) Summary {
	sum := Summary{Ret: map[string]Labels{}, Stores: map[StoreKey]Labels{}}
	for p, l := range a.ret {
		if !l.Empty() {
			sum.Ret[p] = l
		}
	}
	for i, o := range params {
		if o == nil || !storable(i) {
			continue
		}
		for p, l := range a.cells[o] {
			if p == "" {
				// Drop the seed's own identity bit: a parameter trivially
				// "contains" itself, which is not a store effect.
				l.Params &^= Param(i).Params
			}
			if !l.Empty() {
				sum.Stores[StoreKey{Param: i, Path: p}] = l
			}
		}
	}
	if len(sum.Ret) == 0 {
		sum.Ret = nil
	}
	if len(sum.Stores) == 0 {
		sum.Stores = nil
	}
	return sum
}

// Paths lists an object's populated cell paths in sorted order (testing
// and diagnostics).
func (a *Analysis) Paths(o types.Object) []string {
	var out []string
	for p, l := range a.cells[o] {
		if !l.Empty() {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Fixpoint computes one summary per function by running transfer over the
// call graph bottom-up, iterating each strongly connected component until
// its summaries stabilize under equal. get returns the current summary of
// a callee (the zero S before its first computation), so recursive and
// mutually recursive groups converge from below.
func Fixpoint[S any](g *callgraph.Graph, transfer func(n *callgraph.Node, get func(*types.Func) S) S, equal func(a, b S) bool) map[*types.Func]S {
	out := make(map[*types.Func]S, len(g.Nodes()))
	get := func(fn *types.Func) S { return out[fn] }
	for _, comp := range g.SCCs() {
		// Non-recursive singleton: one pass suffices.
		recursive := len(comp) > 1
		if !recursive {
			n := comp[0]
			for _, o := range n.Out {
				if o == n {
					recursive = true
					break
				}
			}
		}
		for round := 0; ; round++ {
			changed := false
			for _, n := range comp {
				s := transfer(n, get)
				if !equal(s, out[n.Fn]) {
					out[n.Fn] = s
					changed = true
				}
			}
			if !recursive || !changed || round > 64 {
				break
			}
		}
	}
	return out
}
