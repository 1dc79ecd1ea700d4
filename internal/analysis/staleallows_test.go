package analysis_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"psbox/internal/analysis"
)

// TestStaleAllows runs the full suite plus the staleallows audit over a
// fixture mixing live and dead directives: only the dead ones are
// flagged, and their deletion fixes restore the golden. analysistest is
// not usable here — staleness is defined relative to a full-suite run,
// and a single-analyzer pass would flag every other analyzer's
// legitimate directives.
func TestStaleAllows(t *testing.T) {
	loader, err := analysis.NewLoader("testdata/src")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.Load("staleallows")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	prog := analysis.NewProgram(loader.Loaded())
	diags := analysis.RunAnalyzersProgram(prog, pkg, append(analysis.All(), analysis.StaleAllows))

	var got []string
	for _, d := range diags {
		if d.Analyzer != "staleallows" {
			t.Errorf("unexpected non-stale finding: %s", d)
			continue
		}
		got = append(got, fmt.Sprintf("%d: %s", d.Pos.Line, d.Message))
	}
	want := []string{
		"3: //psbox:allow-maporder directive suppresses nothing; remove it",
		"18: //psbox:allow-nowallclock directive suppresses nothing; remove it",
		"23: //psbox:allow-energyaccum directive suppresses nothing; remove it",
		"29: //psbox:allow-snapshotstate directive suppresses nothing; remove it",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("findings = %v, want %v", got, want)
	}

	fixed, notes, err := analysis.ApplyFixes(diags, os.ReadFile)
	if err != nil {
		t.Fatalf("applying fixes: %v", err)
	}
	if len(notes) != 0 {
		t.Errorf("unexpected apply notes: %v", notes)
	}
	fixture := filepath.Join("testdata", "src", "staleallows", "a.go")
	abs, err := filepath.Abs(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var content []byte
	for name, data := range fixed {
		if name == fixture || name == abs || filepath.Base(name) == "a.go" {
			content = data
		}
	}
	if content == nil {
		t.Fatalf("no fixed content for %s (fixed files: %d)", fixture, len(fixed))
	}
	golden, err := os.ReadFile(fixture + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(content, golden) {
		t.Errorf("deletion fixes diverge from golden:\n%s", analysis.UnifiedDiff("a.go", golden, content))
	}
}
