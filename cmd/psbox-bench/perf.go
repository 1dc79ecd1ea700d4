// The -perf mode: microbenchmarks over the host paths the end-to-end
// benchmark in _psboxbench does not measure — the meter's sample
// retrieval, a whole-repo psbox-lint pass and its concurrency-contract
// subset — rendered as events/sec, ns/event, and allocs/event. The
// engine, sandbox, attribution and profiler rows of earlier baselines
// moved to _psboxbench's per-layer metrics (sim.ns_per_event,
// sandbox.launch_s, obs.blame_s, profile.fold_s, account.ns_per_window).
// The committed BENCH_k.json files are the baselines these numbers
// regress against (BENCH_5.json is the first to hold all three rows);
// rerun with
//
//	go run ./cmd/psbox-bench -perf -json
//
// on comparable hardware before comparing. The workloads under
// measurement are deterministic (fixed seed, fixed event mix, fixed
// source tree); only the host timings vary.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"psbox"
	"psbox/internal/analysis"
	"psbox/internal/sim"
)

// perfResult is one benchmark's summary. "Event" means one retrieved DAQ
// sample for the meter benchmark and one lint pass for the lint
// benchmarks.
type perfResult struct {
	Bench          string  `json:"bench"`
	Events         int     `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	// TypechecksPerEvent is reported only by lint/whole-repo: package
	// type-checks per lint pass. Zero is the expected (and meaningful)
	// value — the loader's content-hash cache revalidates by hashing alone
	// when sources are unchanged — so the field is a pointer rather than
	// omitempty-on-zero.
	TypechecksPerEvent *float64 `json:"typechecks_per_event,omitempty"`
}

func runPerf(asJSON bool, out io.Writer) {
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"meter/sampling", benchMeterSampling},
		{"lint/whole-repo", benchLintWholeRepo},
		{"lint/concurrency", benchLintConcurrency},
	}
	enc := json.NewEncoder(out)
	if asJSON {
		host := map[string]any{
			"schema": "psbox-perf/1",
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"cpus":   runtime.NumCPU(),
		}
		if err := enc.Encode(host); err != nil {
			panic(err)
		}
	}
	for _, b := range benches {
		r := testing.Benchmark(b.fn)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		res := perfResult{
			Bench:          b.name,
			Events:         r.N,
			EventsPerSec:   1e9 / ns,
			NsPerEvent:     ns,
			AllocsPerEvent: float64(r.AllocsPerOp()),
			BytesPerEvent:  float64(r.AllocedBytesPerOp()),
		}
		if tc, ok := r.Extra["typechecks/op"]; ok {
			res.TypechecksPerEvent = &tc
		}
		if asJSON {
			if err := enc.Encode(res); err != nil {
				panic(err)
			}
			continue
		}
		fmt.Fprintf(out, "%-26s %12.0f events/sec  %8.1f ns/event  %5.1f allocs/event  %7.1f B/event  (n=%d)",
			res.Bench, res.EventsPerSec, res.NsPerEvent, res.AllocsPerEvent, res.BytesPerEvent, res.Events)
		if res.TypechecksPerEvent != nil {
			fmt.Fprintf(out, "  %.2f typechecks/event", *res.TypechecksPerEvent)
		}
		fmt.Fprintln(out)
	}
}

// benchLintWholeRepo measures one full psbox-lint pass over this module:
// load (revalidated against the loader's content-hash cache) plus every
// in-scope analyzer on every package. A warm-up pass outside the timer
// pays the one-time parse + type-check of the tree and its transitive
// standard library, so the timed op is the steady state an editor or
// watch loop sees; typechecks/event staying at zero is the cache's
// correctness showing (any non-zero value means a package re-typechecked
// with unchanged sources). One op = one whole-repo lint run.
func benchLintWholeRepo(b *testing.B) {
	root := benchModuleRoot(b)
	lintPass := func() {
		loader, err := analysis.NewLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.LoadAll()
		if err != nil {
			b.Fatal(err)
		}
		prog := analysis.NewProgram(pkgs)
		for _, pkg := range pkgs {
			var suite []*analysis.Analyzer
			for _, a := range analysis.All() {
				if analysis.InScope(a, pkg.Path) {
					suite = append(suite, a)
				}
			}
			if n := len(analysis.RunAnalyzersProgram(prog, pkg, suite)); n != 0 {
				b.Fatalf("lint found %d finding(s) in %s; the benchmark tree must be clean", n, pkg.Path)
			}
		}
	}
	lintPass()
	b.ReportAllocs()
	before := analysis.TypeCheckCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lintPass()
	}
	b.StopTimer()
	b.ReportMetric(float64(analysis.TypeCheckCount()-before)/float64(b.N), "typechecks/op")
}

// benchModuleRoot walks up from the working directory to the enclosing
// go.mod — the tree the lint benchmarks run over.
func benchModuleRoot(b *testing.B) string {
	cwd, err := os.Getwd()
	if err != nil {
		b.Fatal(err)
	}
	root := cwd
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			return root
		}
		parent := filepath.Dir(root)
		if parent == root {
			b.Fatalf("no go.mod found above %s", cwd)
		}
		root = parent
	}
}

// benchLintConcurrency measures the concurrency-contract subset — the
// goroutineconfine spawn/capture model plus locksetatomic's lockset
// inference — the way CI's `-run goroutineconfine,locksetatomic` job runs
// it: the whole module loaded (revalidated against the loader's
// content-hash cache, warmed outside the timer), only the two analyzers
// executed. One op = one subset pass over every package.
func benchLintConcurrency(b *testing.B) {
	root := benchModuleRoot(b)
	suite := []*analysis.Analyzer{analysis.GoroutineConfine, analysis.LockSetAtomic}
	lintPass := func() {
		loader, err := analysis.NewLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.LoadAll()
		if err != nil {
			b.Fatal(err)
		}
		prog := analysis.NewProgram(pkgs)
		for _, pkg := range pkgs {
			if n := len(analysis.RunAnalyzersProgram(prog, pkg, suite)); n != 0 {
				b.Fatalf("concurrency lint found %d finding(s) in %s; the benchmark tree must be clean", n, pkg.Path)
			}
		}
	}
	lintPass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lintPass()
	}
}

// benchMeterSampling measures DAQ sample retrieval over a realistic rail
// history: the mobile platform runs a render loop for 250 ms of sim time,
// then the benchmark slides a one-period window across the battery rail.
// One op = one retrieved sample.
func benchMeterSampling(b *testing.B) {
	sys := psbox.NewMobile(1)
	app := sys.Kernel.NewApp("bench")
	app.Spawn("render", 0, psbox.Loop(
		psbox.Compute{Cycles: 2e6},
		psbox.SubmitAccel{Dev: "gpu", Kind: "frame", Work: 3e4, DynW: 0.9},
		psbox.AwaitAccel{Dev: "gpu", MaxBacklog: 2},
		psbox.Sleep{D: 4 * psbox.Millisecond},
	))
	sys.Run(250 * psbox.Millisecond)
	m := sys.Meter
	period := sim.Duration(int64(m.Period()))
	horizon := sys.Now()
	b.ReportAllocs()
	b.ResetTimer()
	var t sim.Time
	for i := 0; i < b.N; i++ {
		to := t.Add(period)
		if to > horizon {
			t, to = 0, sim.Time(int64(period))
		}
		_ = m.Samples("battery", t, to)
		t = to
	}
}
