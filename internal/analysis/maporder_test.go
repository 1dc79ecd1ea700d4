package analysis_test

import (
	"testing"

	"psbox/internal/analysis"
	"psbox/internal/analysis/analysistest"
)

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.MapOrder, "maporder")

	// Both halves of the accumulation rule mark //psbox:allow-maporder
	// used, so a full-suite run finds no fixture directive stale.
	loader, err := analysis.NewLoader("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	for _, path := range []string{"maporder", "maporder/flow/a"} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	prog := analysis.NewProgram(loader.Loaded())
	for _, pkg := range pkgs {
		for _, d := range analysis.RunAnalyzersProgram(prog, pkg, append(analysis.All(), analysis.StaleAllows)) {
			if d.Analyzer == "staleallows" {
				t.Errorf("%s", d)
			}
		}
	}
}

// TestMapOrderFlow runs the analyzer's cross-function half: map-order
// values carried through returns, parameters and other packages.
func TestMapOrderFlow(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.MapOrder, "maporder/flow/...")
}
