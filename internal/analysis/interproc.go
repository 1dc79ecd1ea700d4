package analysis

import (
	"go/ast"
	"go/types"

	"psbox/internal/analysis/dataflow"
)

// This file holds the plumbing shared by the interprocedural analyzers
// (walltaint, unbilledenergy, maporder): parameter seeding for the
// dataflow engine, summary extraction, and call walking. The per-path
// flow summaries themselves (which parameters reach the return value at
// which access paths, and which labels a function stores through its
// pointer-like parameters) come from walltaint's one bottom-up pass,
// which maporder maps helper calls through as well.

// seedFunc seeds every parameter of a declared function with its position
// label, receiver first, matching the position convention of
// dataflow.ArgLabels. Unnamed parameters still occupy a position.
func seedFunc(info *types.Info, fd *ast.FuncDecl) map[types.Object]dataflow.Labels {
	seed := make(map[types.Object]dataflow.Labels)
	for i, o := range paramObjs(info, fd) {
		if o != nil {
			seed[o] = dataflow.Param(i)
		}
	}
	return seed
}

// paramObjs lists a function's parameter objects by position, receiver
// first; unnamed parameters hold a nil entry but keep their position.
func paramObjs(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Recv != nil {
		var recv types.Object
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				recv = info.Defs[name]
			}
		}
		out = append(out, recv)
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// storableParam reports whether writes through a parameter object escape
// to the caller: pointer-like types (pointer, map, slice, channel,
// interface) share storage across the call boundary; value parameters are
// copies.
func storableParam(o types.Object) bool {
	if o == nil || o.Type() == nil {
		return false
	}
	switch o.Type().Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// summarize extracts the per-path flow summary of one analyzed function:
// return paths plus store effects through pointer-like parameters.
func summarize(a *dataflow.Analysis, info *types.Info, fd *ast.FuncDecl) dataflow.Summary {
	params := paramObjs(info, fd)
	return a.Summarize(params, func(i int) bool { return storableParam(params[i]) })
}

// paramPositions counts the parameter positions a function binds, receiver
// included.
func paramPositions(fd *ast.FuncDecl) int {
	n := 0
	if fd.Recv != nil {
		n++
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			n++
		} else {
			n += len(field.Names)
		}
	}
	return n
}

// paramMask returns the bitset of every parameter position of fd.
func paramMask(fd *ast.FuncDecl) uint64 {
	n := paramPositions(fd)
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// forEachCall visits every call expression in body in source order,
// function literals included — the engine models closures, so a sink call
// inside a captured func is as real as one at the top level.
func forEachCall(body *ast.BlockStmt, fn func(*ast.CallExpr)) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			fn(call)
		}
		return true
	})
}

// funcDesc renders pkg.Name or pkg.Type.Name for diagnostics.
func funcDesc(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if pkg := fn.Pkg(); pkg != nil {
		return pkg.Name() + "." + name
	}
	return name
}
