// Benchmarks regenerating every table and figure of the paper's
// evaluation (DESIGN.md §3 maps IDs to paper artifacts), plus the ablation
// studies and micro-benchmarks of the simulation substrates.
//
// Run them all with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark reports domain-specific metrics (deviations,
// losses, success rates) via b.ReportMetric, so a bench run doubles as a
// compact reproduction report.
package psbox_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	psbox "psbox"
	"psbox/internal/dtw"
	"psbox/internal/experiments"
	"psbox/internal/sim"
	"psbox/internal/workload"
)

// --- One benchmark per paper artifact -----------------------------------

func BenchmarkFig3aSpatialEntanglement(b *testing.B) {
	var r experiments.Fig3aResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig3a(uint64(i + 1))
	}
	b.ReportMetric(r.OverestimatePct, "overestimate_%")
}

func BenchmarkFig3bRequestBoundary(b *testing.B) {
	var r experiments.Fig3bResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig3b(uint64(i + 1))
	}
	b.ReportMetric(r.DurationSkewPct, "same_kind_skew_%")
}

func BenchmarkFig3cLingeringState(b *testing.B) {
	var r experiments.Fig3cResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig3c(uint64(i + 1))
	}
	b.ReportMetric(r.ExtraPct, "after_busy_extra_%")
}

func BenchmarkFig5Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig5().Rows) != 13 {
			b.Fatal("inventory incomplete")
		}
	}
}

func BenchmarkFig6Insulation(b *testing.B) {
	var r experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig6(uint64(i + 1))
	}
	var worstPS, worstBase float64
	for _, row := range r.Rows {
		if row.MaxPSBoxDevPct > worstPS {
			worstPS = row.MaxPSBoxDevPct
		}
		if row.MaxBaselineDevPct > worstBase {
			worstBase = row.MaxBaselineDevPct
		}
	}
	b.ReportMetric(worstPS, "psbox_worst_dev_%")
	b.ReportMetric(worstBase, "baseline_worst_dev_%")
}

func BenchmarkFig7Balloons(b *testing.B) {
	var r experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7(uint64(i + 1))
	}
	b.ReportMetric(r.CPUOverlapUnboxedMs, "cpu_overlap_unboxed_ms")
	b.ReportMetric(r.CPUOverlapBoxedMs, "cpu_overlap_boxed_ms")
	b.ReportMetric(r.DSPOverlapUnboxedMs, "dsp_overlap_unboxed_ms")
	b.ReportMetric(r.DSPOverlapBoxedMs, "dsp_overlap_boxed_ms")
}

func BenchmarkTab62Overheads(b *testing.B) {
	var r experiments.Tab62Result
	for i := 0; i < b.N; i++ {
		r = experiments.Tab62(uint64(i + 1))
	}
	for _, row := range r.Rows {
		b.ReportMetric(row.LatencyDelta.Milliseconds(), row.Domain+"_lat_delta_ms")
		b.ReportMetric(row.TotalLossPct, row.Domain+"_total_loss_%")
	}
}

func BenchmarkFig8Confinement(b *testing.B) {
	var r experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig8(uint64(i + 1))
	}
	for _, d := range r.Domains {
		b.ReportMetric(d.BoxedLossPct, d.Domain+"_boxed_loss_%")
		b.ReportMetric(-d.WorstOtherLoss, d.Domain+"_other_change_%")
	}
}

func BenchmarkTab63Robustness(b *testing.B) {
	var r experiments.Tab63Result
	for i := 0; i < b.N; i++ {
		r = experiments.Tab63(uint64(i + 1))
	}
	b.ReportMetric(r.BrowserDropFactor, "browser_drop_x")
	b.ReportMetric(r.TriangleChangePct, "triangle_change_%")
}

func BenchmarkFig9VRAdaptation(b *testing.B) {
	var r experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9(uint64(i + 1))
	}
	b.ReportMetric(r.DynamicRange, "dynamic_range_x")
}

func BenchmarkSec25SideChannel(b *testing.B) {
	var r experiments.Sec25Result
	for i := 0; i < b.N; i++ {
		r = experiments.Sec25(uint64(i + 1))
	}
	b.ReportMetric(r.Unrestricted.SuccessRate*100, "unrestricted_success_%")
	b.ReportMetric(r.PSBox.SuccessRate*100, "psbox_success_%")
}

// --- Ablations (DESIGN.md §3) --------------------------------------------

func BenchmarkAblationLoans(b *testing.B) {
	var r experiments.AblLoansResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblLoans(uint64(i + 1))
	}
	b.ReportMetric(r.BoxedLossWithPct, "boxed_loss_with_%")
	b.ReportMetric(r.BoxedLossWithoutPct, "boxed_loss_without_%")
}

func BenchmarkAblationStateVirt(b *testing.B) {
	var r experiments.AblStateVirtResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblStateVirt(uint64(i + 1))
	}
	b.ReportMetric(r.LeakWithPct, "leak_with_%")
	b.ReportMetric(r.LeakWithoutPct, "leak_without_%")
}

func BenchmarkAblationDrainBilling(b *testing.B) {
	var r experiments.AblDrainBillingResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblDrainBilling(uint64(i + 1))
	}
	b.ReportMetric(r.OtherLossFullPct, "other_loss_full_%")
	b.ReportMetric(r.OtherLossIdlePct, "other_loss_idle_%")
}

func BenchmarkAblationMeterRate(b *testing.B) {
	var r experiments.AblMeterRateResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblMeterRate(uint64(i + 1))
	}
	if len(r.DevPct) > 0 {
		b.ReportMetric(r.DevPct[len(r.DevPct)-1], "dev_at_10us_%")
	}
}

func BenchmarkExt7Scopes(b *testing.B) {
	var r experiments.Ext7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Ext7(uint64(i + 1))
	}
	worst := 0.0
	for _, d := range r.DevPct {
		if d > worst {
			worst = d
		}
	}
	b.ReportMetric(worst, "worst_scope_dev_%")
}

func BenchmarkLimCellular(b *testing.B) {
	var r experiments.LimCellularResult
	for i := 0; i < b.N; i++ {
		r = experiments.LimCellular(uint64(i + 1))
	}
	b.ReportMetric(r.DevPct, "entanglement_%")
	b.ReportMetric(r.ColdFirstByteMs, "cold_first_byte_ms")
}

// --- Substrate micro-benchmarks ------------------------------------------

// BenchmarkSimEngineEvents measures raw event throughput of the
// discrete-event core.
func BenchmarkSimEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	n := 0
	var tick func(sim.Time)
	tick = func(sim.Time) {
		n++
		eng.After(1000, tick)
	}
	eng.After(1000, tick)
	b.ResetTimer()
	eng.Run(sim.Time(int64(b.N) * 1000))
	if n < b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

// meterSamples keeps BenchmarkMeterSampling's retrievals observable, so
// the compiler cannot drop the measured call.
var meterSamples []psbox.Sample

// BenchmarkMeterSampling measures DAQ sample retrieval over a realistic
// rail history: outside the timer the mobile platform runs a render loop
// for 250 ms of sim time, then the benchmark slides a one-period window
// across the battery rail. One op is one retrieved sample.
func BenchmarkMeterSampling(b *testing.B) {
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
	period := m.Period()
	horizon := sys.Now()
	b.ReportAllocs()
	b.ResetTimer()
	var t sim.Time
	for i := 0; i < b.N; i++ {
		to := t.Add(period)
		if to > horizon {
			t, to = 0, sim.Time(period)
		}
		meterSamples = m.Samples("battery", t, to)
		t = to
	}
}

// BenchmarkSchedulerSecond measures how much host time one simulated
// second of a contended dual-core scheduler costs.
func BenchmarkSchedulerSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := psbox.NewAM57(uint64(i + 1))
		for j := 0; j < 3; j++ {
			workload.Install(sys.Kernel, workload.Calib3D(2, true))
		}
		sys.Run(1 * psbox.Second)
	}
}

// BenchmarkBoxedSchedulerSecond is the same with one app sandboxed —
// the simulator-side cost of balloons.
func BenchmarkBoxedSchedulerSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := psbox.NewAM57(uint64(i + 1))
		var app *psbox.App
		for j := 0; j < 3; j++ {
			app = workload.Install(sys.Kernel, workload.Calib3D(2, true))
		}
		sys.Sandbox.MustCreate(app, psbox.HWCPU).Enter()
		sys.Run(1 * psbox.Second)
	}
}

// tracedWorkload drives the observability-bench scenario: a contended
// dual-core AM57 with one sandboxed app, matching the canonical traced
// scenario shape.
func tracedWorkload(seed uint64, traced bool, d psbox.Duration) *psbox.System {
	sys := psbox.NewAM57(seed)
	if traced {
		sys.EnableTracing()
	}
	var app *psbox.App
	for j := 0; j < 3; j++ {
		app = workload.Install(sys.Kernel, workload.Calib3D(2, true))
	}
	sys.Sandbox.MustCreate(app, psbox.HWCPU).Enter()
	sys.Run(d)
	return sys
}

// BenchmarkTracingOffSecond is the no-bus baseline for the tracing
// overhead budget (< 10%, see BenchmarkTracingOnSecond).
func BenchmarkTracingOffSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tracedWorkload(uint64(i+1), false, 1*psbox.Second)
	}
}

// BenchmarkTracingOnSecond is the same simulated second with every
// emission site live. Compare against BenchmarkTracingOffSecond: full
// tracing must stay under 10% wall-clock overhead.
func BenchmarkTracingOnSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tracedWorkload(uint64(i+1), true, 1*psbox.Second)
	}
}

// TestTracingOverheadBudget enforces the overhead acceptance bound in the
// regular test run: full tracing must cost < 10% wall-clock over the same
// run with the bus disabled. Wall-clock timing on a loaded host is noisy,
// so the two variants run strictly interleaved (off/on pairs, so CPU
// frequency and cache drift hit both equally), the fastest of each is
// compared, and the whole measurement retries before failing.
func TestTracingOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("the race detector multiplies per-event instrumentation cost; " +
			"the 10% budget is a production-build claim")
	}
	const rounds = 8
	horizon := 1 * psbox.Second
	tracedWorkload(1, true, horizon) // warm up both paths once
	tracedWorkload(1, false, horizon)
	measure := func() (off, on time.Duration) {
		off, on = math.MaxInt64, math.MaxInt64
		for r := 0; r < rounds; r++ {
			start := time.Now()
			tracedWorkload(uint64(r+1), false, horizon)
			if d := time.Since(start); d < off {
				off = d
			}
			start = time.Now()
			tracedWorkload(uint64(r+1), true, horizon)
			if d := time.Since(start); d < on {
				on = d
			}
		}
		return off, on
	}
	var off, on time.Duration
	for attempt := 1; ; attempt++ {
		off, on = measure()
		t.Logf("attempt %d: tracing off %v, on %v (%+.2f%% overhead)",
			attempt, off, on, 100*(float64(on)/float64(off)-1))
		if float64(on) <= float64(off)*1.10 {
			return
		}
		if attempt == 3 {
			t.Fatalf("tracing overhead %.2f%% exceeds the 10%% budget (off=%v on=%v)",
				100*(float64(on)/float64(off)-1), off, on)
		}
	}
}

// TestDisabledTracingZeroDrift proves the disabled bus changes nothing
// observable: the same seeded scenario with and without tracing yields
// byte-identical simulation outcomes (fault log, rail energies, app CPU
// time). Only the trace itself may differ.
func TestDisabledTracingZeroDrift(t *testing.T) {
	digest := func(traced bool) string {
		sys := tracedWorkload(7, traced, 200*psbox.Millisecond)
		var b strings.Builder
		b.WriteString(sys.Faults.FormatLog())
		for _, rail := range sys.Meter.Rails() {
			fmt.Fprintf(&b, "%s=%.12f\n", rail, sys.Meter.Energy(rail, 0, sys.Now()))
		}
		for _, a := range sys.Kernel.Apps() {
			fmt.Fprintf(&b, "%s=%d\n", a.Name, int64(a.CPUTime()))
		}
		for _, bx := range sys.Sandbox.Boxes() {
			fmt.Fprintf(&b, "box=%.12f\n", bx.Read())
		}
		return b.String()
	}
	on, off := digest(true), digest(false)
	if on != off {
		t.Fatalf("tracing perturbed the simulation:\nwith tracing:\n%s\nwithout:\n%s", on, off)
	}
	if sys := tracedWorkload(7, false, 200*psbox.Millisecond); sys.Trace.Total() != 0 {
		t.Fatalf("disabled bus recorded %d events", sys.Trace.Total())
	}
}

// TestDisabledProfilingZeroDrift proves the energy profiler is free when
// off: the same traced scenario with and without profiling (including
// mid-run FoldProfile calls) yields byte-identical simulation outcomes,
// and a never-enabled profiler accumulates nothing even when FoldProfile
// is called.
func TestDisabledProfilingZeroDrift(t *testing.T) {
	digest := func(profiled bool) string {
		sys := psbox.NewAM57(7)
		sys.EnableTracing()
		if profiled {
			sys.EnableProfiling()
		}
		var app *psbox.App
		for j := 0; j < 3; j++ {
			app = workload.Install(sys.Kernel, workload.Calib3D(2, true))
		}
		sys.Sandbox.MustCreate(app, psbox.HWCPU).Enter()
		sys.Run(100 * psbox.Millisecond)
		sys.FoldProfile() // no-op when profiling is off
		sys.Run(100 * psbox.Millisecond)
		sys.FoldProfile()
		var b strings.Builder
		b.WriteString(sys.Faults.FormatLog())
		for _, rail := range sys.Meter.Rails() {
			fmt.Fprintf(&b, "%s=%.12f\n", rail, sys.Meter.Energy(rail, 0, sys.Now()))
		}
		for _, a := range sys.Kernel.Apps() {
			fmt.Fprintf(&b, "%s=%d\n", a.Name, int64(a.CPUTime()))
		}
		for _, bx := range sys.Sandbox.Boxes() {
			fmt.Fprintf(&b, "box=%.12f\n", bx.Read())
		}
		fmt.Fprintf(&b, "trace=%d\n", sys.Trace.Total())
		return b.String()
	}
	on, off := digest(true), digest(false)
	if on != off {
		t.Fatalf("profiling perturbed the simulation:\nwith profiling:\n%s\nwithout:\n%s", on, off)
	}
	sys := tracedWorkload(7, true, 100*psbox.Millisecond)
	sys.FoldProfile() // profiler never enabled: folds must not accumulate
	if sys.Profile.Windows() != 0 || len(sys.Profile.Entries()) != 0 {
		t.Fatalf("disabled profiler folded %d windows", sys.Profile.Windows())
	}
	if sys.Profile.Enabled() {
		t.Fatal("disabled profiler reports enabled; checkpoint format would change")
	}
}

// TestProfileFoldAccumulates sanity-checks the wired-up fold: a profiled
// run yields a non-empty tree whose total tracks the non-battery rail
// energy, the watermark advances, and repeated folds don't double-count.
func TestProfileFoldAccumulates(t *testing.T) {
	sys := psbox.NewAM57(7)
	sys.EnableProfiling()
	var app *psbox.App
	for j := 0; j < 3; j++ {
		app = workload.Install(sys.Kernel, workload.Calib3D(2, true))
	}
	sys.Sandbox.MustCreate(app, psbox.HWCPU).Enter()
	sys.Run(200 * psbox.Millisecond)
	sys.FoldProfile()
	entries := sys.Profile.Entries()
	if len(entries) == 0 {
		t.Fatal("profiled run produced an empty tree")
	}
	var total float64
	for _, e := range entries {
		total += e.J
	}
	if total <= 0 {
		t.Fatalf("profile total = %v J", total)
	}
	if sys.Profile.Through() != sys.Now() {
		t.Fatalf("watermark %v, want %v", sys.Profile.Through(), sys.Now())
	}
	before := sys.Profile.Windows()
	sys.FoldProfile() // nothing new to fold
	if sys.Profile.Windows() != before {
		t.Fatalf("refold double-counted: %d -> %d windows", before, sys.Profile.Windows())
	}
	// The armed profiler joins the checkpoint, and a replay twin verifies.
	snap := sys.Snapshot()
	twin := psbox.NewAM57(7)
	twin.EnableProfiling()
	var tapp *psbox.App
	for j := 0; j < 3; j++ {
		tapp = workload.Install(twin.Kernel, workload.Calib3D(2, true))
	}
	twin.Sandbox.MustCreate(tapp, psbox.HWCPU).Enter()
	twin.Run(200 * psbox.Millisecond)
	twin.FoldProfile()
	twin.FoldProfile()
	if err := twin.Restore(snap); err != nil {
		t.Fatalf("profiled twin restore: %v", err)
	}
}

// BenchmarkVirtualMeterRead measures psbox_read over a long residency
// history.
func BenchmarkVirtualMeterRead(b *testing.B) {
	sys := psbox.NewAM57(9)
	app := sys.Kernel.NewApp("a")
	app.Spawn("t", 0, psbox.Loop(
		psbox.Compute{Cycles: 1e6},
		psbox.Sleep{D: 2 * psbox.Millisecond},
	))
	hog := sys.Kernel.NewApp("hog")
	hog.Spawn("h", 0, psbox.Loop(psbox.Compute{Cycles: 1e6}))
	box := sys.Sandbox.MustCreate(app, psbox.HWCPU)
	box.Enter()
	sys.Run(2 * psbox.Second)
	b.ResetTimer()
	var e float64
	for i := 0; i < b.N; i++ {
		e = box.Read()
	}
	_ = e
}

// BenchmarkDTWClassify measures the §2.5 attacker's classification step.
func BenchmarkDTWClassify(b *testing.B) {
	r := sim.NewRand(5)
	mk := func() []float64 {
		s := make([]float64, 300)
		for i := range s {
			s[i] = r.Float64()
		}
		return s
	}
	training := make([][]float64, 10)
	for i := range training {
		training[i] = mk()
	}
	probe := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dtw.Classify(probe, training, 30)
	}
}

// BenchmarkAccounting measures the baseline accountant's window walk over
// one simulated second at the paper's 10 µs granularity.
func BenchmarkAccounting(b *testing.B) {
	sys := psbox.NewAM57(11)
	victim := workload.Install(sys.Kernel, workload.Calib3D(2, false))
	workload.Install(sys.Kernel, workload.Bodytrack(2, false))
	sys.Run(1 * psbox.Second)
	acc := sys.Accountant("cpu", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.AppEnergy(victim.ID, 0, sys.Now())
	}
}
