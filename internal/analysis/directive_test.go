package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psbox/internal/analysis"
)

// writeFixture lays out a throwaway GOPATH-style tree and loads pkg from it.
func loadFixture(t *testing.T, pkg, src string) *analysis.Package {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, pkg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := loader.Load(pkg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBareDirectiveIsReported(t *testing.T) {
	pkg := loadFixture(t, "p", `package p

func f() {
	//psbox:allow-noconcurrency
	go f()
}
`)
	diags := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{analysis.NoConcurrency})
	var haveDirective, haveGo bool
	for _, d := range diags {
		switch d.Analyzer {
		case "directive":
			haveDirective = strings.Contains(d.Message, "requires a reason")
		case "noconcurrency":
			haveGo = true
		}
	}
	if !haveDirective {
		t.Errorf("bare directive not reported: %v", diags)
	}
	if !haveGo {
		t.Errorf("bare directive must not suppress the finding it precedes: %v", diags)
	}
}

func TestDirectiveOnSameLineSuppresses(t *testing.T) {
	pkg := loadFixture(t, "p", `package p

func f() {
	go f() //psbox:allow-noconcurrency fire-and-forget host logging
}
`)
	diags := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{analysis.NoConcurrency})
	if len(diags) != 0 {
		t.Errorf("same-line directive did not suppress: %v", diags)
	}
}

func TestDirectiveCoversWrappedStatement(t *testing.T) {
	// The finding sits on a continuation line of the statement the
	// directive heads; the directive must still cover it.
	pkg := loadFixture(t, "p", `package p

import "time"

func report(a, b time.Time) {}

func f() {
	//psbox:allow-nowallclock operator-facing banner timestamps
	report(
		time.Now(),
		time.Now())
}
`)
	diags := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{analysis.NoWallClock})
	if len(diags) != 0 {
		t.Errorf("directive above a wrapped call must cover its continuation lines: %v", diags)
	}
}

func TestDirectiveOnFirstLineCoversWrappedStatement(t *testing.T) {
	pkg := loadFixture(t, "p", `package p

import "time"

func report(a, b time.Time) {}

func f() {
	report( //psbox:allow-nowallclock operator-facing banner timestamps
		time.Now(),
		time.Now())
}
`)
	diags := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{analysis.NoWallClock})
	if len(diags) != 0 {
		t.Errorf("same-line directive on a wrapped call must cover its continuation lines: %v", diags)
	}
}

func TestDirectiveStopsAtControlBody(t *testing.T) {
	// A directive above a control statement speaks for its (possibly
	// wrapped) header only, never for the body.
	pkg := loadFixture(t, "p", `package p

import "time"

func cond(a, b bool) bool { return a && b }

func f(a, b bool) {
	//psbox:allow-nowallclock excuses the condition only
	if cond(a,
		b) {
		_ = time.Now()
	}
}
`)
	diags := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{analysis.NoWallClock})
	if len(diags) != 1 {
		t.Errorf("directive above an if must stop at the opening brace, want 1 finding: %v", diags)
	}
}

func TestDirectiveDoesNotLeakAcrossAnalyzers(t *testing.T) {
	pkg := loadFixture(t, "p", `package p

import "time"

func f() {
	//psbox:allow-noconcurrency wrong analyzer name for this finding
	_ = time.Now()
}
`)
	diags := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{analysis.NoWallClock})
	if len(diags) != 1 {
		t.Errorf("directive for another analyzer must not suppress nowallclock: %v", diags)
	}
}

func TestUnknownDirectiveIsReported(t *testing.T) {
	// A misspelt name, or one left behind by a removed analyzer, waives
	// nothing and would never be judged stale: the scanner reports it.
	pkg := loadFixture(t, "p", `package p

func f() {
	//psbox:allow-noconcurrencyy fire-and-forget host logging
	go f()
}
`)
	diags := analysis.RunAnalyzers(pkg, append(analysis.All(), analysis.StaleAllows))
	var haveDirective, haveGo bool
	for _, d := range diags {
		switch d.Analyzer {
		case "directive":
			haveDirective = strings.Contains(d.Message, "psbox:allow-noconcurrencyy directive names no analyzer") &&
				strings.Contains(d.Message, "maporder, noconcurrency, nomathrand")
		case "noconcurrency":
			haveGo = true
		default:
			t.Errorf("unexpected finding: %s", d)
		}
	}
	if !haveDirective {
		t.Errorf("directive naming no analyzer not reported with the known names: %v", diags)
	}
	if !haveGo {
		t.Errorf("a directive naming no analyzer must not suppress anything: %v", diags)
	}
}
