package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"testing"
)

var directiveNameRe = regexp.MustCompile(`^[a-z]+$`)

// FuzzDirectiveScan feeds arbitrary Go sources through the directive
// scanner and checks its structural invariants: it never panics, bare
// directives are reported at valid positions, parsed entries carry
// well-formed names, ordered extents, and sane line spans, and every
// directive covers at least its own position — the property the
// staleallows deletion fix and the suppression logic both lean on.
// The committed seed corpus lives in testdata/fuzz/FuzzDirectiveScan.
func FuzzDirectiveScan(f *testing.F) {
	seeds := []string{
		"package p\n\nfunc f() {\n\t//psbox:allow-maporder tolerance-checked aggregate\n\tgo f()\n}\n",
		"package p\n\nfunc f() {\n\t//psbox:allow-noconcurrency\n}\n",
		"//psbox:allow-nowallclock header waiver for the whole file\npackage p\n",
		"package p\n\nvar x = 1 //psbox:allow-energyaccum trailing form\n",
		"package p\n\nfunc f(a, b int) {\n\t//psbox:allow-nowallclock wrapped statement\n\tg(a,\n\t\tb)\n}\nfunc g(a, b int) {}\n",
		"package p\n\n//psbox:allow-UPPER names must be lower case\n//psbox:allow-maporder\t\ttabs as separator\n",
		"package p\n// not a directive: //psbox:allow-x inside a comment body\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil || file == nil {
			t.Skip()
		}
		dirs := scanDirectives(fset, []*ast.File{file}, func(pos token.Pos, msg string) {
			if !pos.IsValid() {
				t.Errorf("bare-directive report at invalid position (msg %q)", msg)
			}
			if msg == "" {
				t.Error("bare-directive report with empty message")
			}
		})
		for filename, fd := range dirs {
			if filename == "" {
				t.Error("directives keyed by empty filename")
			}
			for _, e := range fd.entries {
				if !directiveNameRe.MatchString(e.name) {
					t.Errorf("entry name %q escaped the directive grammar", e.name)
				}
				if e.end < e.pos {
					t.Errorf("entry extent inverted: %v > %v", e.pos, e.end)
				}
				if !e.fileScope && e.line < 1 {
					t.Errorf("non-header entry with line %d", e.line)
				}
				if e.span != [2]int{} && e.span[0] > e.span[1] {
					t.Errorf("entry span inverted: %v", e.span)
				}
				if e.used {
					t.Error("entries must start unused")
				}
				p := &Pass{Analyzer: &Analyzer{Name: e.name}, Fset: fset, directives: dirs}
				if !p.allowed(e.pos) {
					t.Errorf("directive at %v does not cover its own position", fset.Position(e.pos))
				}
				e.used = false // undo the probe's marking
			}
		}
	})
}
