// The -perf mode: microbenchmarks over the simulator's hottest paths —
// the engine's event heap, the meter's sample retrieval, a whole-repo
// psbox-lint pass, the sandbox manager's session lifecycle, the
// observability joins (blame attribution and the energy profiler's fold)
// and the baseline accountant's budget-monitor query — rendered as
// events/sec, ns/event, and allocs/event. The committed
// BENCH_1.json (engine/meter), BENCH_2.json (adds the lint pass),
// BENCH_3.json (adds sandbox churn), BENCH_4.json (adds the obs joins),
// and BENCH_5.json (adds the concurrency-contract lint subset) are the
// baselines these numbers regress against; rerun with
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
	"psbox/internal/account"
	"psbox/internal/analysis"
	"psbox/internal/hw/power"
	"psbox/internal/obs"
	"psbox/internal/obs/profile"
	"psbox/internal/sandbox"
	"psbox/internal/sim"
)

// perfResult is one benchmark's summary. "Event" means one fired engine
// event for the heap benchmarks, one retrieved DAQ sample for the meter
// benchmark, one whole-repo lint pass for the lint benchmark, one
// whole-rail join or fold for the obs benchmarks, and one 25 ms Shares
// call for the accountant benchmark.
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
		{"engine/heap-churn", benchEngineHeapChurn},
		{"engine/heap-mixed-horizon", benchEngineHeapMixed},
		{"meter/sampling", benchMeterSampling},
		{"lint/whole-repo", benchLintWholeRepo},
		{"lint/concurrency", benchLintConcurrency},
		{"sandbox/churn", benchSandboxChurn},
		{"obs/blame-join", benchObsBlameJoin},
		{"obs/profile-fold", benchObsProfileFold},
		{"account/monitor-window", benchAccountMonitorWindow},
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

// benchEngineHeapChurn measures the heap's steady-state churn: a fixed
// fan-out of self-rescheduling events with co-prime periods, so pops and
// pushes interleave at every heap depth. One op = one fired event.
func benchEngineHeapChurn(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	const fanout = 512
	for i := 0; i < fanout; i++ {
		d := sim.Duration(i%97+1) * sim.Microsecond
		var ev sim.Event
		ev = func(sim.Time) { eng.After(d, ev) }
		eng.After(d, ev)
	}
	b.ResetTimer()
	eng.Drain(uint64(b.N))
}

// benchEngineHeapMixed adds the other scheduling shapes the kernel uses —
// absolute At, periodic Every, and cancellation — to the churn mix.
func benchEngineHeapMixed(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	const fanout = 256
	for i := 0; i < fanout; i++ {
		d := sim.Duration(i%89+1) * sim.Microsecond
		var ev sim.Event
		ev = func(now sim.Time) {
			h := eng.At(now.Add(2*d), func(sim.Time) {})
			if i%3 == 0 {
				eng.Cancel(h)
			}
			eng.After(d, ev)
		}
		eng.After(d, ev)
	}
	for i := 0; i < 32; i++ {
		eng.Every(sim.Duration(i%13+1)*sim.Microsecond, func(sim.Time) {})
	}
	b.ResetTimer()
	eng.Drain(uint64(b.N))
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

// benchSandboxChurn measures the session manager's lifecycle machinery:
// one op = one complete session lifecycle — admission (headroom check,
// app + sandbox registration, program spawn), a crash kill, and the
// circuit breaker's quarantine (BreakerN=1, so the first kill is
// terminal). A huge monitor window keeps the budget ladder out of the
// measurement. The manager keeps terminal sessions for its report, so the
// system is rotated every 256 ops to hold the session list — and with it
// the per-op cost — constant; the rotation rides inside the timer and
// amortizes to noise. One op = one lifecycle.
func benchSandboxChurn(b *testing.B) {
	b.ReportAllocs()
	const batch = 256
	var mgr *sandbox.Manager
	newBatch := func() {
		sys := psbox.NewAM57(1)
		mgr = sys.Sandboxes()
		cfg := sandbox.DefaultConfig(1e6)
		cfg.Window = 1 << 40
		cfg.BreakerN = 1
		mgr.SetConfig(cfg)
	}
	newBatch()
	start := func(app *psbox.App) {
		app.Spawn("idle", 0, psbox.Loop(psbox.Sleep{D: psbox.Second}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 && i > 0 {
			newBatch()
		}
		name := fmt.Sprintf("s%d", i%batch)
		s, err := mgr.Launch(sandbox.Spec{Name: name, BudgetW: 1, Start: start})
		if err != nil {
			b.Fatal(err)
		}
		if !mgr.InjectCrash(name) {
			b.Fatal("no live session to crash")
		}
		if s.State() != sandbox.StateQuarantined {
			b.Fatalf("state %v after breaker-1 kill", s.State())
		}
	}
}

// benchTracedRail drives the traced mobile render scenario for 250 ms of
// sim time and extracts the cpu rail's attribution inputs: DAQ samples,
// activity spans, dropout gaps, and owner names — the shared setup for
// the observability-join benchmarks.
func benchTracedRail(b *testing.B) (sys *psbox.System, samples []power.Sample, period sim.Duration, gaps []obs.Gap) {
	sys = psbox.NewMobile(1)
	sys.EnableTracing()
	app := sys.Kernel.NewApp("bench")
	app.Spawn("render", 0, psbox.Loop(
		psbox.Compute{Cycles: 2e6},
		psbox.SubmitAccel{Dev: "gpu", Kind: "frame", Work: 3e4, DynW: 0.9},
		psbox.AwaitAccel{Dev: "gpu", MaxBacklog: 2},
		psbox.Sleep{D: 4 * psbox.Millisecond},
	))
	sys.Faults.DropMeterAt(sim.Time(100*sim.Millisecond), "cpu", 2*sim.Millisecond)
	sys.Run(250 * psbox.Millisecond)
	samples = sys.Meter.Samples("cpu", 0, sys.Now())
	if len(samples) == 0 {
		b.Fatal("traced scenario produced no cpu samples")
	}
	for _, w := range sys.Meter.Dropouts("cpu", 0, sys.Now()) {
		gaps = append(gaps, obs.Gap{From: w.From, To: w.To})
	}
	return sys, samples, sys.Meter.Period(), gaps
}

// benchObsBlameJoin measures the attribution joiner: one op = one
// whole-rail join of the traced run's samples against its span timeline
// (edge sort, then per-window occupancy split, coverage and dropout
// check), the call System.Blame makes.
func benchObsBlameJoin(b *testing.B) {
	sys, samples, period, gaps := benchTracedRail(b)
	intervals := obs.IntervalsFromEvents(sys.Trace.Events(), "cpu")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = obs.Attribute(samples, period, intervals, gaps)
	}
}

// benchObsProfileFold measures the energy profiler's fold: one op = one
// whole-rail fold of the traced run into the weighted app → component →
// rail tree (span selection, edge sort, per-component occupancy, idle
// remainder), the call System.FoldProfile makes, over the same samples as
// obs/blame-join so the two rows compare like for like.
func benchObsProfileFold(b *testing.B) {
	sys, samples, period, gaps := benchTracedRail(b)
	events := sys.Trace.Events()
	p := profile.New()
	p.Enable()
	ownerName := func(id int) string {
		if id == 0 {
			return "kernel"
		}
		return "bench"
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.FoldRail("cpu", samples, period, events, gaps, ownerName)
	}
}

// benchAccountMonitorWindow measures the baseline accountant the way the
// sandbox budget monitor drives it: one op = one usage-share Shares call
// over the last 25 ms of the cpu rail of an AM57 System that has run
// 10 sim-s with co-running CPU apps — a steady hog, and two bursty apps
// sharing the other core. The System is built and run once, outside the
// timer, so each op sees the same 10 s of recorded usage history.
func benchAccountMonitorWindow(b *testing.B) {
	sys := psbox.NewAM57(1)
	sys.Kernel.NewApp("hog").Spawn("spin", 0, psbox.Loop(psbox.Compute{Cycles: 1e6}))
	for i, sleep := range []psbox.Duration{3 * psbox.Millisecond, 7 * psbox.Millisecond} {
		sys.Kernel.NewApp(fmt.Sprintf("burst%d", i)).Spawn("work", 1, psbox.Loop(
			psbox.Compute{Cycles: 2e6},
			psbox.Sleep{D: sleep},
		))
	}
	sys.Run(10 * psbox.Second)
	acc := sys.Accountant("cpu", account.PolicyUsageShare)
	to := sys.Now()
	from := to.Add(-25 * psbox.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = acc.Shares(from, to)
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
