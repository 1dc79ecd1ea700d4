package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"reflect"
)

// SnapshotState enforces the checkpoint contract: every stateful field of
// a snapshotted struct must be referenced by the struct's own
// Encoder-taking methods. A struct is "snapshotted" when it has a method —
// any name, exported or not — taking a *psbox/internal/snapshot.Encoder.
// Coverage is the union of field references across those methods, so a
// helper method that also takes the Encoder counts, while a plain function
// or another method that merely touches the field does not. A field the
// methods never encode silently falls out of the checkpoint, and the
// registry's replay-twin byte comparison cannot see state that was never
// written; the divergence only surfaces when a crash-and-resume run
// happens to disturb it.
//
// Stateful fields exclude what the checkpoint legitimately skips: the
// blank field, func-typed fields (wiring, rebuilt by scenario
// reconstruction), fields whose element type has its own Encoder-taking
// method (covered by delegation, also through pointers, slices, arrays,
// channels and map values), and fields tagged `psbox:"config"`. Any other
// missed field must be encoded or carry a reasoned directive:
//
//	//psbox:allow-snapshotstate <reason>
//
// The directive is consulted only for a missed field, so a waiver on a
// field the methods do encode stays unused and staleallows reports it.
var SnapshotState = &Analyzer{
	Name: "snapshotstate",
	Doc: `flag stateful fields of snapshotted structs (structs with a method
taking a *psbox/internal/snapshot.Encoder) that the Encoder-taking methods
never encode; unencoded fields silently fall out of the checkpoint
contract.`,
	Run: runSnapshotState,
}

// isEncoder reports whether t is *snapshot.Encoder.
func isEncoder(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "psbox/internal/snapshot" && obj.Name() == "Encoder"
}

// takesEncoder reports whether the signature has an Encoder parameter.
func takesEncoder(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isEncoder(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// snapRecv resolves an Encoder-taking method declaration to its named
// struct receiver type, or nil.
func snapRecv(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil {
		return nil
	}
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	if !takesEncoder(sig) {
		return nil
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// elemType strips pointers, slices, arrays, maps, and channels down to
// the field's element type (for maps, the value type).
func elemType(t types.Type) types.Type {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Slice:
			t = x.Elem()
		case *types.Array:
			t = x.Elem()
		case *types.Map:
			t = x.Elem()
		case *types.Chan:
			t = x.Elem()
		default:
			return t
		}
	}
}

// exemptField reports whether a field needs no direct reference: func
// typed, or delegated to an element type with its own Encoder-taking
// method.
func exemptField(t types.Type) bool {
	e := elemType(t)
	if _, ok := e.Underlying().(*types.Signature); ok {
		return true
	}
	named, ok := e.(*types.Named)
	if !ok {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if fn, ok := ms.At(i).Obj().(*types.Func); ok && takesEncoder(fn.Type().(*types.Signature)) {
			return true
		}
	}
	return false
}

// configTagged reports whether a struct field is tagged `psbox:"config"`
// — configuration replayed from the scenario, not checkpointed state.
func configTagged(tag string) bool {
	return reflect.StructTag(tag).Get("psbox") == "config"
}

// encCall renders the Encoder method call that writes one basic-typed
// value, with the narrowing-free conversion the wire format expects, or
// "" when the type has no single-call encoding.
func encCall(t types.Type, val string) string {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return ""
	}
	switch {
	case b.Kind() == types.Uint64:
		return "U64(" + val + ")"
	case b.Info()&types.IsUnsigned != 0:
		return "U64(uint64(" + val + "))"
	case b.Kind() == types.Int64:
		return "I64(" + val + ")"
	case b.Info()&types.IsInteger != 0:
		return "I64(int64(" + val + "))"
	case b.Kind() == types.Float64:
		return "F64(" + val + ")"
	case b.Info()&types.IsFloat != 0:
		return "F64(float64(" + val + "))"
	case b.Kind() == types.Bool:
		return "Bool(" + val + ")"
	case b.Kind() == types.String:
		return "Str(" + val + ")"
	}
	return ""
}

// encodeLineFix builds the edit appending `enc.X(recv.field)` as the last
// line of an Encoder-taking method body. Requires named receiver and
// encoder parameters, a basic-typed field, and the closing brace on its
// own line.
func (p *Pass) encodeLineFix(m *ast.FuncDecl, field *types.Var) []SuggestedFix {
	if len(m.Recv.List) == 0 || len(m.Recv.List[0].Names) == 0 {
		return nil
	}
	recv := m.Recv.List[0].Names[0].Name
	if recv == "_" {
		return nil
	}
	encName := ""
	for _, pf := range m.Type.Params.List {
		for _, nm := range pf.Names {
			if def := p.Info.Defs[nm]; def != nil && isEncoder(def.Type()) {
				encName = nm.Name
			}
		}
	}
	if encName == "" || encName == "_" {
		return nil
	}
	call := encCall(field.Type(), recv+"."+field.Name())
	if call == "" {
		return nil
	}
	start, ind, ok := p.lineStart(m.Body.Rbrace)
	if !ok {
		return nil
	}
	if bracePos := p.Fset.Position(m.Body.Rbrace); bracePos.Column-1 != len(ind) {
		return nil // single-line body: the brace shares its line with code
	}
	line := fmt.Sprintf("%s\t%s.%s\n", ind, encName, call)
	filename := p.Fset.Position(m.Body.Rbrace).Filename
	return []SuggestedFix{{
		Message: fmt.Sprintf("encode %s in %s", field.Name(), m.Name.Name),
		Edits:   []TextEdit{{File: filename, Start: start, End: start, New: line}},
	}}
}

func runSnapshotState(pass *Pass) {
	methods := make(map[*types.Named][]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if named := snapRecv(pass.Info, fd); named != nil {
				methods[named] = append(methods[named], fd)
			}
		}
	}

	for named, ms := range methods {
		covered := make(map[types.Object]bool)
		for _, m := range ms {
			ast.Inspect(m.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if v, ok := pass.Info.Uses[id].(*types.Var); ok && v.IsField() {
						covered[v] = true
					}
				}
				return true
			})
		}
		// The first Encoder-taking method in declaration order is where a
		// suggested fix appends a missing encode line.
		first := ms[0]
		for _, m := range ms[1:] {
			if m.Pos() < first.Pos() {
				first = m
			}
		}

		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if covered[field] || field.Name() == "_" || exemptField(field.Type()) || configTagged(st.Tag(i)) {
				continue
			}
			// A basic-typed miss has a mechanical remedy, the encode call;
			// everything else falls back to a reviewable waiver stub.
			fixes := pass.encodeLineFix(first, field)
			if fixes == nil {
				fixes = pass.directiveStubFix(field.Pos())
			}
			pass.Report(field.Pos(),
				fmt.Sprintf("field %s of snapshotted struct %s is not encoded by its Encoder-taking methods; encode it or annotate why replay reconstructs it",
					field.Name(), named.Obj().Name()),
				fixes...)
		}
	}
}
