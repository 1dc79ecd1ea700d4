// Package analysis implements psbox's static determinism and
// energy-accounting checks as a small self-contained analyzer framework.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer holds a name, a doc string, and a Run function over a
// type-checked package — but is built only on the standard library so the
// module stays dependency-free. Eleven analyzers enforce the simulator's
// determinism, checkpoint, billing, and observability contracts (see
// DESIGN.md §"Determinism contract", §"Checkpoint/restore" and
// §"Observability"):
//
//	nowallclock    — no time.Now/Sleep/Since/After inside internal/
//	nomathrand     — no math/rand outside internal/sim/rand.go
//	noconcurrency  — no goroutines, channels, or sync in sim packages
//	maporder       — no order-sensitive work inside map-range loops,
//	                 float accumulation through locals and helper calls
//	                 included (whole-program)
//	energyaccum    — no ad-hoc += into energy/joule/charge accumulators
//	snapshotstate  — no stateful field left unencoded by the struct's
//	                 Encoder-taking methods
//	obsdeterminism — no fmt.Fprint*/log.* in instrumented packages
//	walltaint      — no wall-clock/env/pid-derived values reaching sim
//	                 state, snapshot writers, or obs events (whole-program)
//	unbilledenergy — rail power transitions must be billed into
//	                 internal/account on every path (whole-program)
//	goroutineconfine — confined values (System, snapshot encoders, obs bus,
//	                 scenario RNG) reachable from at most one goroutine;
//	                 channel send transfers ownership (whole-program)
//	locksetatomic  — in host-concurrency packages, inferred mutex/field
//	                 guards are held on every access; no WaitGroup.Add in
//	                 the spawned goroutine; no mixed atomic/plain access
//
// The interprocedural analyzers consult a whole-program view —
// the cross-package call graph and bottom-up function summaries — carried
// by a Program and shared across analyzers through its fact cache.
//
// A finding can be suppressed with an explicit, reasoned directive on the
// offending line (or the line above, or file-wide in the header). A
// directive on the line above a statement that wraps across several lines
// covers the whole statement, so findings reported on a continuation line
// are suppressed too:
//
//	//psbox:allow-<analyzer> <reason>
//
// The reason is mandatory: a bare directive is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"

	"psbox/internal/analysis/callgraph"
)

// An Analyzer is one named static check.
type Analyzer struct {
	Name string // short lower-case identifier, used in directives and output
	Doc  string // one-paragraph description of the rule
	Run  func(*Pass)
}

// A Diagnostic is one finding, positioned in the analyzed source. Fixes,
// when present, are machine-applicable remediations (see ApplyFixes).
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Fixes    []SuggestedFix
}

// String formats the diagnostic the way go vet does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package. Prog is
// the whole program the package was loaded as a part of; intraprocedural
// analyzers ignore it, interprocedural ones pull the call graph and shared
// summary tables from it.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	PkgPath  string
	Pkg      *types.Package
	Info     *types.Info
	Prog     *Program

	diags      *[]Diagnostic
	directives map[string]*fileDirectives // keyed by filename
}

// A Program is the package set of one lint run. It owns the expensive
// whole-program artifacts — the cross-package call graph and the
// interprocedural analyzers' bottom-up summary tables — so each is built
// once per run instead of once per package.
type Program struct {
	Pkgs []*Package // deterministic import-path order

	cg    *callgraph.Graph
	facts map[string]any
}

// NewProgram wraps an already-loaded package set.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs, facts: make(map[string]any)}
}

// CallGraph builds (once) and returns the program's call graph.
func (p *Program) CallGraph() *callgraph.Graph {
	if p.cg == nil {
		cgPkgs := make([]*callgraph.Package, len(p.Pkgs))
		for i, pkg := range p.Pkgs {
			cgPkgs[i] = &callgraph.Package{Path: pkg.Path, Files: pkg.Files, Types: pkg.Types, Info: pkg.Info}
		}
		p.cg = callgraph.Build(cgPkgs)
	}
	return p.cg
}

// Fact memoizes a whole-program computation under key. The first caller's
// build result is handed to every later caller, so an analyzer that runs
// once per package computes its summary table once per program.
func (p *Program) Fact(key string, build func() any) any {
	if v, ok := p.facts[key]; ok {
		return v
	}
	v := build()
	p.facts[key] = v
	return v
}

// A directiveEntry is one //psbox:allow-* comment, with everything needed
// to decide coverage and — after a full-suite run — staleness. used flips
// when the directive suppresses (or exempts) at least one finding.
type directiveEntry struct {
	name      string    // analyzer the directive waives
	pos, end  token.Pos // the comment's own extent
	line      int
	fileScope bool // header directive: whole file exempt
	// span is the line range of a multi-line statement the directive
	// heads, so a finding on a continuation line is suppressed too; zero
	// when the directive covers only its own and the next line.
	span [2]int
	used bool
}

// fileDirectives records the //psbox:allow-* lines of one file.
type fileDirectives struct {
	entries []*directiveEntry
}

var directiveRe = regexp.MustCompile(`^//psbox:allow-([a-z]+)(?:\s+(.*))?$`)

// scanDirectives indexes every allow directive in the package and reports
// directives that omit the mandatory reason or name no analyzer: a
// misspelt name, or one left behind by a removed analyzer, would
// otherwise waive nothing without a word.
func scanDirectives(fset *token.FileSet, files []*ast.File, report func(token.Pos, string)) map[string]*fileDirectives {
	var names []string
	for _, a := range append(All(), StaleAllows) {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	out := make(map[string]*fileDirectives)
	for _, f := range files {
		fd := &fileDirectives{}
		out[fset.Position(f.Pos()).Filename] = fd
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				name, reason := m[1], strings.TrimSpace(m[2])
				if reason == "" {
					report(c.Pos(), fmt.Sprintf("psbox:allow-%s directive requires a reason", name))
					continue
				}
				if !slices.Contains(names, name) {
					report(c.Pos(), fmt.Sprintf("psbox:allow-%s directive names no analyzer (known: %s)", name, strings.Join(names, ", ")))
					continue
				}
				e := &directiveEntry{name: name, pos: c.Pos(), end: c.End()}
				if c.Pos() < f.Package {
					// Header comment: the whole file is exempt.
					e.fileScope = true
				} else {
					e.line = fset.Position(c.Pos()).Line
					if from, to, ok := stmtSpanAt(fset, f, e.line); ok && to > from {
						e.span = [2]int{from, to}
					}
				}
				fd.entries = append(fd.entries, e)
			}
		}
	}
	return out
}

// stmtSpanAt returns the line range of the innermost statement a directive
// at line covers: the statement beginning on the directive's own line or
// on the line directly below. For statements that carry a body (if, for,
// switch, select), coverage stops at the opening brace so a directive
// above a control statement never silences the body.
func stmtSpanAt(fset *token.FileSet, f *ast.File, line int) (int, int, bool) {
	var best ast.Stmt
	ast.Inspect(f, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		start := fset.Position(s.Pos()).Line
		if start != line && start != line+1 {
			return true
		}
		if best == nil || (s.Pos() >= best.Pos() && s.End() <= best.End()) {
			best = s
		}
		return true
	})
	if best == nil {
		return 0, 0, false
	}
	return fset.Position(best.Pos()).Line, fset.Position(stmtCoverageEnd(best)).Line, true
}

// stmtCoverageEnd is the last position a directive on a statement's first
// line speaks for.
func stmtCoverageEnd(s ast.Stmt) token.Pos {
	switch s := s.(type) {
	case *ast.IfStmt:
		return s.Body.Lbrace
	case *ast.ForStmt:
		return s.Body.Lbrace
	case *ast.RangeStmt:
		return s.Body.Lbrace
	case *ast.SwitchStmt:
		return s.Body.Lbrace
	case *ast.TypeSwitchStmt:
		return s.Body.Lbrace
	case *ast.SelectStmt:
		return s.Body.Lbrace
	case *ast.BlockStmt:
		return s.Lbrace
	case *ast.LabeledStmt:
		return stmtCoverageEnd(s.Stmt)
	}
	return s.End()
}

// allowed reports whether an analyzer finding at pos is covered by one of
// the analyzer's directives on the same line, the line above, the spanned
// lines of the statement the directive heads, or the file header. Every
// matching directive is marked used, which is what the staleallows check
// consumes after a full-suite run; analyzers therefore consult it only for
// a finding they would otherwise report.
func (p *Pass) allowed(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	fd := p.directives[position.Filename]
	if fd == nil {
		return false
	}
	hit := false
	for _, e := range fd.entries {
		if e.name != p.Analyzer.Name {
			continue
		}
		if e.fileScope ||
			e.line == position.Line || e.line == position.Line-1 ||
			(e.span[1] > 0 && position.Line >= e.span[0] && position.Line <= e.span[1]) {
			e.used = true
			hit = true
		}
	}
	return hit
}

// Reportf records a finding unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.allowed(pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Filename returns the file a node was parsed from.
func (p *Pass) Filename(n ast.Node) string {
	return p.Fset.Position(n.Pos()).Filename
}

// All is the complete suite in stable order. walltaint, unbilledenergy,
// goroutineconfine and maporder's read-modify-write half are
// interprocedural; when run through RunAnalyzers' single-package wrapper
// they see a one-package program and degrade to intraprocedural checking.
func All() []*Analyzer {
	return []*Analyzer{NoWallClock, NoMathRand, NoConcurrency, MapOrder, EnergyAccum, SnapshotState, ObsDeterminism, WallTaint, UnbilledEnergy, GoroutineConfine, LockSetAtomic}
}

// obsInstrumented are the package subtrees that emit on the observability
// bus; obsdeterminism polices exactly these. The obs package itself (the
// reporting layer, which writes canonical reports to caller-supplied
// io.Writers) and cmd tools (whose whole job is printing) stay out of
// scope.
var obsInstrumented = []string{
	"psbox/internal/sim",
	"psbox/internal/kernel",
	"psbox/internal/hw",
	"psbox/internal/meter",
	"psbox/internal/faults",
	"psbox/internal/core",
	"psbox/internal/sandbox",
}

// InScope reports whether an analyzer applies to a package, per the
// determinism contract in DESIGN.md: nowallclock covers only
// psbox/internal/... (cmd tools may legitimately report host time) and
// obsdeterminism only the instrumented subtrees that emit on the
// observability bus; every other analyzer covers the whole module, with
// their file-level exemptions (sim/rand.go, internal/meter,
// core/vmeter.go) and allow directives as the only escape hatches.
func InScope(a *Analyzer, pkgPath string) bool {
	switch a.Name {
	case "nowallclock", "walltaint", "unbilledenergy":
		// cmd tools may legitimately read host time and environment; the
		// simulator tree may not, directly or through any call chain.
		return strings.HasPrefix(pkgPath, "psbox/internal")
	case "obsdeterminism":
		for _, p := range obsInstrumented {
			if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
				return true
			}
		}
		return false
	}
	return true
}

// RunAnalyzers applies each analyzer to the package as a one-package
// program. Interprocedural analyzers see no callees beyond the package;
// use RunAnalyzersProgram for whole-program precision.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunAnalyzersProgram(NewProgram([]*Package{pkg}), pkg, analyzers)
}

// RunAnalyzersProgram applies each analyzer to one package of prog and
// returns the findings sorted by position, ties in the order reported.
// Malformed allow directives are reported once per package under the
// pseudo-analyzer name "directive".
func RunAnalyzersProgram(prog *Program, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	dirs := scanDirectives(pkg.Fset, pkg.Files, func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{
			Pos:      pkg.Fset.Position(pos),
			Analyzer: "directive",
			Message:  msg,
		})
	})
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			PkgPath:    pkg.Path,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			Prog:       prog,
			diags:      &diags,
			directives: dirs,
		}
		a.Run(pass)
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// pkgNameOf resolves an identifier to the import path of the package it
// names, or "" when it is not a package qualifier.
func pkgNameOf(info *types.Info, id *ast.Ident) string {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// qualifiedCall matches expressions of the form pkg.Name where pkg is an
// import of pkgPath, returning the selected name.
func qualifiedName(info *types.Info, e ast.Expr, pkgPath string) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if pkgNameOf(info, id) != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}
