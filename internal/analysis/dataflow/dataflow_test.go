package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"psbox/internal/analysis/callgraph"
)

// checkPkg type-checks one package and returns the file plus the info
// needed to run the engine.
func checkPkg(t *testing.T, src string) (*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p/a.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return f, info
}

func fn(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("no func %s", name)
	return nil
}

func seedParams(info *types.Info, fd *ast.FuncDecl) map[types.Object]Labels {
	seed := make(map[types.Object]Labels)
	i := 0
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				seed[info.Defs[name]] = Param(i)
				i++
			}
		}
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			seed[info.Defs[name]] = Param(i)
			i++
		}
	}
	return seed
}

func objByName(info *types.Info, fd *ast.FuncDecl, name string) types.Object {
	var found types.Object
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			if o := info.Defs[id]; o != nil {
				found = o
				return false
			}
		}
		return true
	})
	return found
}

func TestLocalPropagation(t *testing.T) {
	f, info := checkPkg(t, `package p
func f(a, b int) int {
	x := a
	y := x + 1
	z := b
	_ = z
	return y
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	if got := a.Return(); got != Param(0) {
		t.Errorf("return depends only on a (param 0); got %+v", got)
	}
	if z := objByName(info, fd, "z"); a.Of(z) != Param(1) {
		t.Errorf("z carries b's label; got %+v", a.Of(z))
	}
}

func TestConversionAndCompositePropagate(t *testing.T) {
	f, info := checkPkg(t, `package p
type w struct{ v int64 }
func f(a int) w {
	u := int64(a)
	return w{v: u}
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	if got := a.Return(); got != Param(0) {
		t.Errorf("conversion + composite literal must propagate; got %+v", got)
	}
	// And field-sensitively: the label lives at .v, not at the root.
	rv := a.ReturnValue()
	if rv[".v"] != Param(0) || !rv[""].Empty() {
		t.Errorf("composite literal places labels per-field; got %v", rv)
	}
}

func TestUnknownCallConservative(t *testing.T) {
	f, info := checkPkg(t, `package p
import "strings"
func f(a string) string {
	return strings.ToUpper(a)
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	if got := a.Return(); got != Param(0) {
		t.Errorf("unknown calls default to arg→result propagation; got %+v", got)
	}
}

func TestCallHookOverrides(t *testing.T) {
	f, info := checkPkg(t, `package p
func launder(s string) string { return s }
func f(a string) string {
	return launder(a)
}`)
	fd := fn(t, f, "f")
	// A hook that models launder as label-killing.
	hooks := Hooks{Call: func(call *ast.CallExpr, args *CallArgs) (Value, bool) {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "launder" {
			return Value{}, true
		}
		return nil, false
	}}
	a := Run(info, fd.Body, seedParams(info, fd), hooks)
	if got := a.Return(); !got.Empty() {
		t.Errorf("hook must override the default; got %+v", got)
	}
}

func TestSourceHook(t *testing.T) {
	f, info := checkPkg(t, `package p
func now() int64 { return 0 }
func f() int64 {
	t := now()
	u := t * 2
	return u
}`)
	fd := fn(t, f, "f")
	hooks := Hooks{Source: func(call *ast.CallExpr) Labels {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "now" {
			return Kind(0)
		}
		return Labels{}
	}}
	a := Run(info, fd.Body, seedParams(info, fd), hooks)
	if got := a.Return(); got.Kinds != 1 {
		t.Errorf("source label must survive arithmetic; got %+v", got)
	}
}

func TestRangeOverLabeledCollection(t *testing.T) {
	f, info := checkPkg(t, `package p
func f(xs []int) int {
	for _, v := range xs {
		return v
	}
	return 0
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	if got := a.Return(); got != Param(0) {
		t.Errorf("range element inherits the collection's labels; got %+v", got)
	}
}

func TestFieldSensitiveStructWrite(t *testing.T) {
	// Writing v.a must not label the sibling v.b — the PR 5 engine's
	// signature imprecision, inverted and pinned here.
	f, info := checkPkg(t, `package p
type s struct{ a, b int }
func f(x int) int {
	var v s
	v.a = x
	return v.b
}
func g(x int) int {
	var v s
	v.a = x
	return v.a
}
func h(x int) int {
	var v s
	v.a = x
	return v.a + v.b
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	if got := a.Return(); !got.Empty() {
		t.Errorf("sibling field must stay unlabeled; got %+v", got)
	}
	gd := fn(t, f, "g")
	ag := Run(info, gd.Body, seedParams(info, gd), Hooks{})
	if got := ag.Return(); got != Param(0) {
		t.Errorf("the written field itself carries the label; got %+v", got)
	}
	hd := fn(t, f, "h")
	ah := Run(info, hd.Body, seedParams(info, hd), Hooks{})
	if got := ah.Return(); got != Param(0) {
		t.Errorf("mixed read carries only the written field's label; got %+v", got)
	}
}

func TestWholeObjectWriteCoversFields(t *testing.T) {
	// Labels on all of v (v = w assignment from a labeled struct value
	// with root-level labels) must be visible when reading any field.
	f, info := checkPkg(t, `package p
type s struct{ a, b int }
func f(w s) int {
	v := w
	return v.b
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	if got := a.Return(); got != Param(0) {
		t.Errorf("whole-object labels cover every field; got %+v", got)
	}
}

func TestNestedPathAndDepthCap(t *testing.T) {
	f, info := checkPkg(t, `package p
type inner struct{ x, y int }
type outer struct{ in inner; other int }
func f(p int) int {
	var o outer
	o.in.x = p
	return o.in.x
}
func g(p int) int {
	var o outer
	o.in.x = p
	return o.in.y
}
func h(p int) int {
	var o outer
	o.in.x = p
	return o.other
}`)
	for _, tc := range []struct {
		name string
		want Labels
	}{
		{"f", Param(0)}, // exact path read
		{"g", Labels{}}, // sibling leaf stays clean
		{"h", Labels{}}, // sibling subtree stays clean
	} {
		fd := fn(t, f, tc.name)
		a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
		if got := a.Return(); got != tc.want {
			t.Errorf("%s: got %+v want %+v", tc.name, got, tc.want)
		}
	}
}

func TestDepthCapTruncatesConservatively(t *testing.T) {
	// Four segments exceed MaxPathDepth=3: the write truncates to the
	// 3-segment prefix, so the exact read still sees it (conservative),
	// and so does a sibling below the truncation point (the precision
	// cost of bounding paths).
	f, info := checkPkg(t, `package p
type l4 struct{ v, w int }
type l3 struct{ d l4 }
type l2 struct{ c l3 }
type l1 struct{ b l2 }
func f(p int) int {
	var o l1
	o.b.c.d.v = p
	return o.b.c.d.v
}
func g(p int) int {
	var o l1
	o.b.c.d.v = p
	return o.b.c.d.w
}`)
	for _, name := range []string{"f", "g"} {
		fd := fn(t, f, name)
		a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
		if got := a.Return(); got != Param(0) {
			t.Errorf("%s: truncated write must still be observed; got %+v", name, got)
		}
	}
	// The truncated cell sits at depth 3.
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	o := objByName(info, fd, "o")
	paths := a.Paths(o)
	if len(paths) != 1 || paths[0] != ".b.c.d" {
		t.Errorf("write beyond the cap truncates to its prefix; got %v", paths)
	}
}

func TestIndexCollapsesToElementSlot(t *testing.T) {
	f, info := checkPkg(t, `package p
func f(p int) int {
	m := map[string]int{}
	m["k"] = p
	return m["other"]
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	if got := a.Return(); got != Param(0) {
		t.Errorf("all elements share one summary slot; got %+v", got)
	}
}

func TestPointerIsPathTransparent(t *testing.T) {
	f, info := checkPkg(t, `package p
type s struct{ a, b int }
func f(x int) int {
	var v s
	p := &v
	p.a = x
	return v.a
}
func g(x int) int {
	var v s
	p := &v
	p.a = x
	return v.b
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	if got := a.Return(); got != Param(0) {
		t.Errorf("write through pointer reaches the pointee's field; got %+v", got)
	}
	gd := fn(t, f, "g")
	ag := Run(info, gd.Body, seedParams(info, gd), Hooks{})
	if got := ag.Return(); !got.Empty() {
		t.Errorf("pointer write keeps field precision; got %+v", got)
	}
}

func TestClosureCaptureWritePropagates(t *testing.T) {
	// The PR 5 engine skipped FuncLit bodies entirely; a taint smuggled
	// through a captured variable was invisible. Pinned as fixed.
	f, info := checkPkg(t, `package p
func f(a int) int {
	var x int
	g := func() { x = a }
	g()
	return x
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	if got := a.Return(); got != Param(0) {
		t.Errorf("write to a captured variable inside a closure must propagate; got %+v", got)
	}
}

func TestFuncLitReturnStaysInside(t *testing.T) {
	// A return statement inside a literal is the literal's return, not
	// the enclosing function's.
	f, info := checkPkg(t, `package p
func f(a int) int {
	g := func() int { return a }
	_ = g
	return 0
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	if got := a.Return(); !got.Empty() {
		t.Errorf("funclit returns must not count as outer returns; got %+v", got)
	}
}

func TestCallArgsStoreModelsSetter(t *testing.T) {
	// A hook replaying a callee's store effect (put writes its second
	// argument into the first argument's .val field) must land the label
	// in the caller's cell — the heap round-trip the old engine missed.
	f, info := checkPkg(t, `package p
type box struct{ val, other int }
func put(b *box, v int) {}
func f(x int) int {
	var b box
	put(&b, x)
	return b.val
}
func g(x int) int {
	var b box
	put(&b, x)
	return b.other
}`)
	hooks := Hooks{Call: func(call *ast.CallExpr, args *CallArgs) (Value, bool) {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "put" {
			args.Store(0, ".val", args.Labels(1))
			return Value{}, true
		}
		return nil, false
	}}
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), hooks)
	if got := a.Return(); got != Param(0) {
		t.Errorf("store effect must reach the argument's field; got %+v", got)
	}
	gd := fn(t, f, "g")
	ag := Run(info, gd.Body, seedParams(info, gd), hooks)
	if got := ag.Return(); !got.Empty() {
		t.Errorf("store effect must not leak to sibling fields; got %+v", got)
	}
}

func TestReturnedCallStoreReachesFixpoint(t *testing.T) {
	// put's store effect is reached only through the return statement; it
	// must land inside the fixpoint, so the earlier read of b.val sees x.
	f, info := checkPkg(t, `package p
type box struct{ val int }
func put(b *box, v int) int { return 0 }
func f(b *box, x int) int {
	y := b.val
	_ = y
	return put(b, x)
}`)
	hooks := Hooks{Call: func(call *ast.CallExpr, args *CallArgs) (Value, bool) {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "put" {
			args.Store(0, ".val", args.Labels(1))
			return Value{}, true
		}
		return nil, false
	}}
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), hooks)
	if got := a.Of(objByName(info, fd, "y")); got.Params&Param(1).Params == 0 {
		t.Errorf("y must carry x's label from the store in the return; got %+v", got)
	}
}

func TestArgLabelsAreFieldPrecise(t *testing.T) {
	// Passing s.clean to a sink carries only s.clean's labels, not the
	// labels of its tainted sibling.
	f, info := checkPkg(t, `package p
type s struct{ dirty, clean int }
func sink(v int) {}
func f(x int) {
	var v s
	v.dirty = x
	sink(v.clean)
	sink(v.dirty)
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	var calls []*ast.CallExpr
	ast.Inspect(fd, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "sink" {
				calls = append(calls, c)
			}
		}
		return true
	})
	if len(calls) != 2 {
		t.Fatalf("want 2 sink calls, got %d", len(calls))
	}
	if got := a.ArgLabels(calls[0], 0); !got.Empty() {
		t.Errorf("sink(v.clean) must be unlabeled; got %+v", got)
	}
	if got := a.ArgLabels(calls[1], 0); got != Param(0) {
		t.Errorf("sink(v.dirty) must carry the taint; got %+v", got)
	}
}

func TestVariadicFoldsIntoLastParam(t *testing.T) {
	f, info := checkPkg(t, `package p
func sink(prefix string, vals ...int) {}
func f(a, b int) {
	sink("x", a, b)
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	call := findCall(fd, "sink")
	if call == nil {
		t.Fatal("no sink call")
	}
	want := Param(0).Union(Param(1))
	if got := a.ArgLabels(call, 1); got != want {
		t.Errorf("variadic position must union a and b: got %+v want %+v", got, want)
	}
	if got := a.ArgLabels(call, 0); !got.Empty() {
		t.Errorf("the prefix argument is unlabeled: %+v", got)
	}
	if n := a.NumParams(call); n != 2 {
		t.Errorf("sink binds 2 positions, got %d", n)
	}
}

// findCall locates the first call whose callee name matches name.
func findCall(fd *ast.FuncDecl, name string) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == name {
				found = call
				return false
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == name {
				found = call
				return false
			}
		}
		return true
	})
	return found
}

func TestMethodReceiverIsPositionZero(t *testing.T) {
	f, info := checkPkg(t, `package p
type r struct{ n int }
func (x r) m(y int) {}
func f(a r, b int) {
	a.m(b)
}`)
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	call := findCall(fd, "m")
	if call == nil {
		t.Fatal("no method call")
	}
	if recv, arg1 := a.ArgLabels(call, 0), a.ArgLabels(call, 1); recv != Param(0) || arg1 != Param(1) {
		t.Errorf("receiver=%+v arg=%+v", recv, arg1)
	}
	if n := a.NumParams(call); n != 2 {
		t.Errorf("receiver + 1 param = 2 positions, got %d", n)
	}
}

func TestSummarizeRecordsStores(t *testing.T) {
	// put stores its value parameter into the receiver's .val field: the
	// summary must carry a Stores entry for param 0 at ".val" labeled
	// Param(1), and no self-bit store at the receiver root.
	f, info := checkPkg(t, `package p
type box struct{ val, other int }
func (b *box) put(v int) {
	b.val = v
}`)
	fd := fn(t, f, "put")
	a := Run(info, fd.Body, seedParams(info, fd), Hooks{})
	recv := info.Defs[fd.Recv.List[0].Names[0]]
	v := objByName(info, fd, "v")
	_ = v
	sum := a.Summarize([]types.Object{recv, objOfParam(info, fd, 0)}, func(i int) bool { return i == 0 })
	if got := sum.Stores[StoreKey{Param: 0, Path: ".val"}]; got != Param(1) {
		t.Errorf("store summary must record param1 → recv.val; got %+v (stores %v)", got, sum.Stores)
	}
	if _, ok := sum.Stores[StoreKey{Param: 0, Path: ""}]; ok {
		t.Errorf("the seed self-bit must not appear as a store effect: %v", sum.Stores)
	}
	if len(sum.Ret) != 0 {
		t.Errorf("put returns nothing; got %v", sum.Ret)
	}
}

// objOfParam returns the i-th declared (non-receiver) parameter object.
func objOfParam(info *types.Info, fd *ast.FuncDecl, i int) types.Object {
	n := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if n == i {
				return info.Defs[name]
			}
			n++
		}
	}
	return nil
}

func TestSummaryApplyRoundTrip(t *testing.T) {
	// Apply replays a setter summary at a call site: the caller's local
	// gains the taint at exactly the stored path.
	f, info := checkPkg(t, `package p
type box struct{ val, other int }
func put(b *box, v int) {}
func get(b *box) int { return 0 }
func f(x int) int {
	var b box
	put(&b, x)
	return get(&b)
}`)
	putSum := Summary{Stores: map[StoreKey]Labels{{Param: 0, Path: ".val"}: Param(1)}}
	getSum := Summary{Ret: map[string]Labels{"": Param(0)}}
	hooks := Hooks{Call: func(call *ast.CallExpr, args *CallArgs) (Value, bool) {
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return nil, false
		}
		switch id.Name {
		case "put":
			return putSum.Apply(args), true
		case "get":
			return getSum.Apply(args), true
		}
		return nil, false
	}}
	fd := fn(t, f, "f")
	a := Run(info, fd.Body, seedParams(info, fd), hooks)
	if got := a.Return(); got != Param(0) {
		t.Errorf("taint must survive the heap round-trip via summaries; got %+v", got)
	}
}

func TestSummaryEqual(t *testing.T) {
	a := Summary{Ret: map[string]Labels{".v": Param(0)}}
	b := Summary{Ret: map[string]Labels{".v": Param(0)}}
	c := Summary{Ret: map[string]Labels{".v": Param(1)}}
	d := Summary{Ret: map[string]Labels{".v": Param(0)}, Stores: map[StoreKey]Labels{{Param: 0, Path: ".x"}: Kind(1)}}
	if !a.Equal(b) {
		t.Error("identical summaries must compare equal")
	}
	if a.Equal(c) || a.Equal(d) || d.Equal(a) {
		t.Error("differing summaries must compare unequal")
	}
	if !(Summary{}).Equal(Summary{}) {
		t.Error("zero summaries are equal")
	}
}

func TestValueSelectAndPrefix(t *testing.T) {
	v := Value{"": Kind(0), ".a": Param(0), ".a.b": Param(1), ".c": Param(2)}
	got := v.Select(".a")
	if got[""] != Kind(0).Union(Param(0)) {
		t.Errorf("Select root: whole-object + exact-path labels; got %v", got)
	}
	if got[".b"] != Param(1) {
		t.Errorf("Select must rebase subpaths; got %v", got)
	}
	if _, ok := got[".c"]; ok {
		t.Errorf("sibling paths must be dropped; got %v", got)
	}
	p := Value{"": Param(0), ".x": Param(1)}.Prefixed(".f")
	if p[".f"] != Param(0) || p[".f.x"] != Param(1) {
		t.Errorf("Prefixed must rebase under the segment; got %v", p)
	}
	deep := Value{".a.b.c": Param(0)}.Prefixed(".f")
	if deep[".f.a.b"] != Param(0) {
		t.Errorf("Prefixed beyond the cap truncates; got %v", deep)
	}
}

func TestTruncPath(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", ""},
		{".a", ".a"},
		{".a.b.c", ".a.b.c"},
		{".a.b.c.d", ".a.b.c"},
		{".a.[].c.d.e", ".a.[].c"},
	} {
		if got := truncPath(tc.in); got != tc.want {
			t.Errorf("truncPath(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if strings.Count(truncPath(".a.b.c.d"), ".") != MaxPathDepth {
		t.Error("cap must hold exactly MaxPathDepth segments")
	}
}

func TestFixpointRecursion(t *testing.T) {
	// Summaries over a mutually recursive pair must converge: odd/even
	// both propagate their parameter to the return.
	fset := token.NewFileSet()
	src := `package p
func odd(n int) int {
	if n == 0 { return 0 }
	return even(n - 1)
}
func even(n int) int {
	if n == 0 { return n }
	return odd(n - 1)
}`
	f, err := parser.ParseFile(fset, "p/a.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Types:      make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{}
	tp, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &callgraph.Package{Path: "p", Files: []*ast.File{f}, Types: tp, Info: info}
	g := callgraph.Build([]*callgraph.Package{pkg})

	sums := Fixpoint(g, func(n *callgraph.Node, get func(*types.Func) Summary) Summary {
		seed := make(map[types.Object]Labels)
		var params []types.Object
		i := 0
		for _, field := range n.Decl.Type.Params.List {
			for _, name := range field.Names {
				seed[info.Defs[name]] = Param(i)
				params = append(params, info.Defs[name])
				i++
			}
		}
		hooks := Hooks{Call: func(call *ast.CallExpr, args *CallArgs) (Value, bool) {
			callee := callgraph.StaticCallee(info, call)
			if callee == nil {
				return nil, false
			}
			return get(callee).Apply(args), true
		}}
		a := Run(info, n.Decl.Body, seed, hooks)
		return a.Summarize(params, func(int) bool { return false })
	}, Summary.Equal)
	for _, n := range g.Nodes() {
		if got := flattenRet(sums[n.Fn]); got != Param(0) {
			t.Errorf("%s: recursion fixpoint should yield param0→return, got %+v", n.Fn.Name(), got)
		}
	}
}

func flattenRet(s Summary) Labels {
	var l Labels
	for _, m := range s.Ret {
		l = l.Union(m)
	}
	return l
}
