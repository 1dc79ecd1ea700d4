// Command psbox-lint runs psbox's determinism and energy-accounting
// analyzers and exits non-zero on any finding. It is the static half of
// the determinism contract: the CI determinism job catches divergence
// after the fact; psbox-lint rejects the constructs that cause it before
// they merge.
//
// Usage:
//
//	go run ./cmd/psbox-lint [-json] [-fix] [-diff] [-run <analyzer,...>] [-staleallows=false] [packages]
//
// Package patterns (./..., ./internal/..., ./cmd/psbox-lint) select which
// packages' findings are reported. The whole module containing the working
// directory is always loaded and analyzed regardless — the interprocedural
// analyzers need the full call graph — so narrowing the patterns narrows
// the report, not the analysis. With no patterns, ./... is assumed. The
// analyzers' package scopes (below) are fixed by DESIGN.md, not by the
// command line.
//
// With -json, each finding is printed to stdout as one JSON object per
// line with the fields file, line, col, analyzer, message, and — when the
// analyzer attached machine-applicable remediations — fixes, an array of
// {message, edits:[{file, start, end, new}]} with byte-offset edits.
//
// Suggested fixes are applied with -fix (edits the files in place; a
// second run is a no-op) or previewed with -diff (prints only the unified
// diff the fixes would apply, byte-stable across runs, nothing when there
// is no fix to apply — which makes it a CI gate: non-empty output means a
// mechanically fixable finding was merged).
//
// -run restricts the suite to a comma-separated subset of analyzer names
// (suite order is preserved regardless of the order given), so CI and
// local loops can run just one pass — e.g. the concurrency contracts:
//
//	go run ./cmd/psbox-lint -run goroutineconfine,locksetatomic ./internal/... ./cmd/...
//
// An unknown name is an error (exit 2) listing the known analyzers.
//
// The staleallows audit runs by default: after the full suite, any
// //psbox:allow-* directive that suppressed no finding is itself reported
// (its fix deletes the dead directive). -staleallows=false disables the
// audit for runs whose narrowed report would make it noisy; a -run subset
// disables it too, since staleness is only meaningful against the full
// suite's findings.
//
// Scopes of the eleven analyzers:
//
//	nowallclock    — psbox/internal/... (cmd tools may report host time)
//	nomathrand     — every package (internal/sim/rand.go itself exempt)
//	noconcurrency  — every package (escape: //psbox:allow-noconcurrency)
//	maporder       — every package (whole-program dataflow for
//	                 accumulation through locals and helper calls)
//	energyaccum    — every package (internal/meter, core/vmeter.go exempt)
//	snapshotstate  — every package (escape: //psbox:allow-snapshotstate)
//	obsdeterminism — instrumented internal subtrees (sim, kernel, hw,
//	                 meter, faults, core, sandbox); report via the obs bus
//	                 instead
//	walltaint      — psbox/internal/... (whole-program taint)
//	unbilledenergy — psbox/internal/... (whole-program pairing)
//	goroutineconfine — every package (whole-program spawn/capture model)
//	locksetatomic  — every package that uses host concurrency (goroutines
//	                 or the sync packages); pure sim packages are exempt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"psbox/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psbox-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit one JSON object per finding instead of text lines")
	applyFix := fs.Bool("fix", false, "apply suggested fixes to the source files in place")
	diffOut := fs.Bool("diff", false, "print only the unified diff the suggested fixes would apply")
	stale := fs.Bool("staleallows", true, "audit //psbox:allow-* directives that no longer suppress anything")
	runSel := fs.String("run", "", "comma-separated analyzer subset to run (default: the full suite)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	suite := analysis.All()
	if *runSel != "" {
		selected, err := selectAnalyzers(suite, *runSel)
		if err != nil {
			fmt.Fprintln(stderr, "psbox-lint:", err)
			return 2
		}
		suite = selected
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "psbox-lint:", err)
		return 2
	}
	root, err := moduleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "psbox-lint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "psbox-lint:", err)
		return 2
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(stderr, "psbox-lint:", err)
		return 2
	}

	match, err := compilePatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "psbox-lint:", err)
		return 2
	}

	prog := analysis.NewProgram(pkgs)
	var report []analysis.Diagnostic
	for _, pkg := range pkgs {
		if !match(pkg.Dir) {
			continue
		}
		var pkgSuite []*analysis.Analyzer
		for _, a := range suite {
			if !analysis.InScope(a, pkg.Path) {
				continue
			}
			pkgSuite = append(pkgSuite, a)
		}
		if *stale && *runSel == "" {
			// Staleness is judged against the findings of this same run, so
			// the audit must be last in the suite — and only a full-suite
			// run can judge it: under a -run subset every other analyzer's
			// directives would look dead.
			pkgSuite = append(pkgSuite, analysis.StaleAllows)
		}
		report = append(report, analysis.RunAnalyzersProgram(prog, pkg, pkgSuite)...)
	}

	if *diffOut || *applyFix {
		if code := emitFixes(report, root, *diffOut, *applyFix, stdout, stderr); code != 0 {
			return code
		}
	}
	if !*diffOut {
		for _, d := range report {
			printDiag(stdout, root, d, *jsonOut)
		}
	}
	if len(report) > 0 {
		fmt.Fprintf(stderr, "psbox-lint: %d finding(s)\n", len(report))
		return 1
	}
	return 0
}

// selectAnalyzers resolves a comma-separated -run value against the full
// suite, preserving suite order regardless of the order given.
func selectAnalyzers(all []*analysis.Analyzer, sel string) ([]*analysis.Analyzer, error) {
	want := make(map[string]bool)
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		want[name] = true
	}
	var subset []*analysis.Analyzer
	for _, a := range all {
		if want[a.Name] {
			subset = append(subset, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		var unknown, known []string
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		for _, a := range all {
			known = append(known, a.Name)
		}
		return nil, fmt.Errorf("unknown analyzer %q (known: %s)", unknown[0], strings.Join(known, ", "))
	}
	if len(subset) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	return subset, nil
}

// emitFixes applies (or previews) every suggested fix of the report. Files
// are visited in sorted order so -diff output is byte-stable.
func emitFixes(report []analysis.Diagnostic, root string, diff, apply bool, stdout, stderr io.Writer) int {
	fixed, notes, err := analysis.ApplyFixes(report, os.ReadFile)
	if err != nil {
		fmt.Fprintln(stderr, "psbox-lint:", err)
		return 2
	}
	for _, n := range notes {
		fmt.Fprintln(stderr, "psbox-lint:", n)
	}
	var names []string
	for name := range fixed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		orig, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(stderr, "psbox-lint:", err)
			return 2
		}
		if diff {
			fmt.Fprint(stdout, analysis.UnifiedDiff(relTo(root, name), orig, fixed[name]))
		}
		if apply {
			if err := os.WriteFile(name, fixed[name], 0o644); err != nil {
				fmt.Fprintln(stderr, "psbox-lint:", err)
				return 2
			}
		}
	}
	if apply && len(names) > 0 {
		fmt.Fprintf(stderr, "psbox-lint: fixed %d file(s)\n", len(names))
	}
	return 0
}

// compilePatterns turns go-style package patterns, resolved against the
// working directory, into a directory matcher.
func compilePatterns(cwd string, patterns []string) (func(dir string) bool, error) {
	type rule struct {
		base    string
		subtree bool
	}
	var rules []rule
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			return nil, fmt.Errorf("flag %s must precede package patterns", p)
		}
		rest, subtree := strings.CutSuffix(p, "/...")
		if rest == "" {
			rest = "."
		}
		base := rest
		if !filepath.IsAbs(base) {
			base = filepath.Join(cwd, base)
		}
		rules = append(rules, rule{base: filepath.Clean(base), subtree: subtree})
	}
	return func(dir string) bool {
		dir = filepath.Clean(dir)
		for _, r := range rules {
			if dir == r.base {
				return true
			}
			if r.subtree && strings.HasPrefix(dir, r.base+string(filepath.Separator)) {
				return true
			}
		}
		return false
	}, nil
}

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	File     string                  `json:"file"`
	Line     int                     `json:"line"`
	Col      int                     `json:"col"`
	Analyzer string                  `json:"analyzer"`
	Message  string                  `json:"message"`
	Fixes    []analysis.SuggestedFix `json:"fixes,omitempty"`
}

// relTo renders a path relative to the module root when it lies inside.
func relTo(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}

func printDiag(w io.Writer, root string, d analysis.Diagnostic, asJSON bool) {
	file := relTo(root, d.Pos.Filename)
	if asJSON {
		// Fix edit paths are relativized like the finding itself, so the
		// artifact is stable across checkouts.
		fixes := make([]analysis.SuggestedFix, len(d.Fixes))
		for i, f := range d.Fixes {
			edits := make([]analysis.TextEdit, len(f.Edits))
			for j, e := range f.Edits {
				e.File = relTo(root, e.File)
				edits[j] = e
			}
			fixes[i] = analysis.SuggestedFix{Message: f.Message, Edits: edits}
		}
		b, err := json.Marshal(jsonDiag{
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Fixes:    fixes,
		})
		if err != nil {
			panic(err) // a struct of strings and ints cannot fail
		}
		fmt.Fprintf(w, "%s\n", b)
		return
	}
	d.Pos.Filename = file
	fmt.Fprintln(w, d.String())
}

// moduleRoot walks up from dir to the enclosing go.mod.
func moduleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
