package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"psbox/internal/analysis"
)

// lintModule runs every analyzer of suite that is in scope for a package
// over every package of this module — the work one psbox-lint invocation
// does — and fails on any finding: the benchmark tree must be clean.
func lintModule(tb testing.TB, suite []*analysis.Analyzer) {
	tb.Helper()
	loader, err := analysis.NewLoader("../..")
	if err != nil {
		tb.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		tb.Fatal(err)
	}
	prog := analysis.NewProgram(pkgs)
	for _, pkg := range pkgs {
		var run []*analysis.Analyzer
		for _, a := range suite {
			if analysis.InScope(a, pkg.Path) {
				run = append(run, a)
			}
		}
		if n := len(analysis.RunAnalyzersProgram(prog, pkg, run)); n != 0 {
			tb.Fatalf("lint found %d finding(s) in %s; the benchmark tree must be clean", n, pkg.Path)
		}
	}
}

// benchLint measures repeated lint passes of suite over this module. A
// warm-up pass outside the timer pays the one-time parse and type-check of
// the tree and its transitive standard library, so the timed op is the
// steady state an editor or watch loop sees: loading revalidates against
// the loader's content-hash cache by hashing alone. typechecks/op
// therefore reads zero; any other value means a package re-type-checked
// with unchanged sources. One op is one pass over every package.
func benchLint(b *testing.B, suite []*analysis.Analyzer) {
	lintModule(b, suite)
	b.ReportAllocs()
	before := analysis.TypeCheckCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lintModule(b, suite)
	}
	b.StopTimer()
	b.ReportMetric(float64(analysis.TypeCheckCount()-before)/float64(b.N), "typechecks/op")
}

// BenchmarkLintAll measures a whole psbox-lint pass: every analyzer.
func BenchmarkLintAll(b *testing.B) { benchLint(b, analysis.All()) }

// BenchmarkLintConcurrency measures the concurrency-contract subset — the
// goroutineconfine spawn/capture model plus locksetatomic's lockset
// inference — the way CI's `-run goroutineconfine,locksetatomic` step runs
// it: the whole module loaded, only the two analyzers executed.
func BenchmarkLintConcurrency(b *testing.B) {
	benchLint(b, []*analysis.Analyzer{analysis.GoroutineConfine, analysis.LockSetAtomic})
}

// TestLoaderCacheIsSharedAcrossInvocations proves the load-once contract:
// a second NewLoader for the same root returns the same instance, and a
// second LoadAll performs zero additional type-checks.
func TestLoaderCacheIsSharedAcrossInvocations(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module cachedemo\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "leaf")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "leaf.go"), []byte("package leaf\n\nfunc Leaf() int { return 1 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	first, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.LoadAll(); err != nil {
		t.Fatal(err)
	}
	checked := analysis.TypeCheckCount()
	if checked == 0 {
		t.Fatal("first LoadAll performed no type-checks")
	}

	second, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("NewLoader for the same root must return the cached instance")
	}
	pkgs, err := second.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "cachedemo/leaf" {
		t.Fatalf("unexpected packages: %v", pkgs)
	}
	if got := analysis.TypeCheckCount(); got != checked {
		t.Errorf("second LoadAll re-type-checked: count went %d -> %d", checked, got)
	}
	if loaded := second.Loaded(); len(loaded) != 1 || loaded[0] != pkgs[0] {
		t.Errorf("Loaded() must return the cached package objects")
	}
}
