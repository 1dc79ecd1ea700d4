package experiments

import (
	"fmt"
	"strings"

	psbox "psbox"
	"psbox/internal/hw/accelhw"
	"psbox/internal/sim"
	"psbox/internal/workload"
)

// Fig3aResult quantifies spatial power entanglement on the dual-core CPU:
// doubling a solo run's power over-estimates the true duo power because
// the shared rail base is counted twice.
type Fig3aResult struct {
	SoloW           float64 // one instance, one core busy
	DuoW            float64 // two instances, both cores busy
	DoubledSoloW    float64 // the naive extrapolation of Fig. 3(a)
	OverestimatePct float64
}

// Fig3a runs one then two instances of a spin workload and compares duo
// power to the doubled solo power.
func Fig3a(seed uint64) Fig3aResult {
	measure := func(instances int) float64 {
		sys := psbox.NewAM57(seed)
		for i := 0; i < instances; i++ {
			workload.Install(sys.Kernel, workload.Spin(i))
		}
		sys.Run(500 * psbox.Millisecond)
		// Skip the governor ramp-up: measure the steady second half.
		return avgPower(sys, "cpu", sim.Time(250*sim.Millisecond), sys.Now())
	}
	r := Fig3aResult{SoloW: measure(1), DuoW: measure(2)}
	r.DoubledSoloW = 2 * r.SoloW
	r.OverestimatePct = pct(r.DoubledSoloW, r.DuoW)
	return r
}

func (r Fig3aResult) String() string {
	var b strings.Builder
	b.WriteString(header("Fig. 3(a) — spatial concurrency in hardware (2×Cortex-A15 model)"))
	fmt.Fprintf(&b, "1 instance  (core 0 busy):        %6.2f W\n", r.SoloW)
	fmt.Fprintf(&b, "2 instances (both cores busy):    %6.2f W\n", r.DuoW)
	fmt.Fprintf(&b, "1 instance doubled (extrapolated):%6.2f W\n", r.DoubledSoloW)
	fmt.Fprintf(&b, "→ extrapolation overestimates by %.1f%%: per-core power cannot be read off the shared rail\n", r.OverestimatePct)
	return b.String()
}

// Fig3bCmd is one GPU command's CPU-visible window.
type Fig3bCmd struct {
	ID         uint64
	Kind       string
	SubmitMs   float64
	CompleteMs float64
	DurationMs float64
}

// Fig3bResult shows three GPU commands whose CPU-visible windows overlap,
// with the per-window mean rail power — entangled for the overlapped pair.
type Fig3bResult struct {
	Cmds              []Fig3bCmd
	Cmd2OverlapsCmd1  bool
	SameKindDurations [2]float64 // durations of the two same-kind commands
	DurationSkewPct   float64
}

// Fig3b reproduces the paper's three-command scenario: a long command 1,
// then two identical commands 2 and 3, where command 2 overlaps command 1.
func Fig3b(seed uint64) Fig3bResult {
	eng := sim.NewEngine()
	cfg := accelhw.GPUConfig()
	cfg.InitialFreqIdx = len(cfg.FreqsMHz) - 1
	cfg.GovernorWindow = 0
	dev := accelhw.MustNew(eng, cfg)
	var done []*accelhw.Command
	dev.OnComplete(func(c *accelhw.Command) { done = append(done, c) })

	// Command 1: long type-A; commands 2 and 3: same type B. 2 is
	// submitted while 1 is still executing (pipelined), 3 after.
	c1 := &accelhw.Command{ID: 1, Kind: "A", Work: 10000, DynW: 0.7}
	c2 := &accelhw.Command{ID: 2, Kind: "B", Work: 4000, DynW: 0.6}
	c3 := &accelhw.Command{ID: 3, Kind: "B", Work: 4000, DynW: 0.6}
	dev.Dispatch(c1)
	eng.After(2*sim.Millisecond, func(sim.Time) { dev.Dispatch(c2) })
	var disp3 func(sim.Time)
	disp3 = func(sim.Time) {
		if dev.FreeSlots() > 0 && len(done) >= 2 {
			dev.Dispatch(c3)
			return
		}
		eng.After(100*sim.Microsecond, disp3)
	}
	eng.After(2*sim.Millisecond+100*sim.Microsecond, disp3)
	eng.RunFor(80 * sim.Millisecond)

	r := Fig3bResult{}
	for _, c := range []*accelhw.Command{c1, c2, c3} {
		r.Cmds = append(r.Cmds, Fig3bCmd{
			ID:         c.ID,
			Kind:       c.Kind,
			SubmitMs:   c.Dispatched.Seconds() * 1000,
			CompleteMs: c.Completed.Seconds() * 1000,
			DurationMs: c.Completed.Sub(c.Dispatched).Milliseconds(),
		})
	}
	r.Cmd2OverlapsCmd1 = c2.Dispatched < c1.Completed
	r.SameKindDurations = [2]float64{r.Cmds[1].DurationMs, r.Cmds[2].DurationMs}
	r.DurationSkewPct = pct(r.SameKindDurations[0], r.SameKindDurations[1])
	return r
}

func (r Fig3bResult) String() string {
	var b strings.Builder
	b.WriteString(header("Fig. 3(b) — blurry request boundary (PowerVR SGX544MP model)"))
	for _, c := range r.Cmds {
		fmt.Fprintf(&b, "cmd %d (type %s): dispatched %6.2f ms, completed %6.2f ms, CPU-visible duration %6.2f ms\n",
			c.ID, c.Kind, c.SubmitMs, c.CompleteMs, c.DurationMs)
	}
	fmt.Fprintf(&b, "cmd 2 overlaps cmd 1: %v\n", r.Cmd2OverlapsCmd1)
	fmt.Fprintf(&b, "→ same-type commands 2 and 3 differ by %.0f%% in CPU-visible duration; their power merges on the rail while overlapped\n",
		r.DurationSkewPct)
	return b.String()
}

// Fig3cResult quantifies lingering power state: the same burst costs more
// right after a busy period (cluster clocked high) than after idleness.
type Fig3cResult struct {
	AfterIdleMJ float64
	AfterBusyMJ float64
	ExtraPct    float64
}

// lingering builds the Fig. 3(c) AM57: both cores ran a busy loop for
// 300 ms that stopped 2 ms ago (preheat), or never ran.
func lingering(seed uint64, preheat bool) *psbox.System {
	sys := psbox.NewAM57(seed)
	warm := sys.Kernel.NewApp("warmup")
	w0 := warm.Spawn("w0", 0, psbox.Loop(psbox.Compute{Cycles: 1e6}))
	w1 := warm.Spawn("w1", 1, psbox.Loop(psbox.Compute{Cycles: 1e6}))
	if !preheat {
		sys.Kernel.Kill(w0)
		sys.Kernel.Kill(w1)
	}
	sys.Run(300 * psbox.Millisecond)
	if preheat {
		sys.Kernel.Kill(w0)
		sys.Kernel.Kill(w1)
		sys.Run(2 * psbox.Millisecond)
	}
	return sys
}

// Fig3c measures a fixed burst in both contexts.
func Fig3c(seed uint64) Fig3cResult {
	measure := func(preheat bool) float64 {
		sys := lingering(seed, preheat)
		app := sys.Kernel.NewApp("subject")
		app.Spawn("burst", 0, psbox.Sequence(psbox.Compute{Cycles: 12e6}))
		start := sys.Now()
		sys.Run(40 * psbox.Millisecond)
		return mj(sys.Meter.Energy("cpu", start, sys.Now()))
	}
	r := Fig3cResult{AfterIdleMJ: measure(false), AfterBusyMJ: measure(true)}
	r.ExtraPct = pct(r.AfterBusyMJ, r.AfterIdleMJ)
	return r
}

func (r Fig3cResult) String() string {
	var b strings.Builder
	b.WriteString(header("Fig. 3(c) — lingering power state (DVFS governor)"))
	fmt.Fprintf(&b, "burst after idle period: %7.2f mJ\n", r.AfterIdleMJ)
	fmt.Fprintf(&b, "burst after busy period: %7.2f mJ (%+.1f%%)\n", r.AfterBusyMJ, r.ExtraPct)
	b.WriteString("→ the same code's power depends on what ran before it\n")
	return b.String()
}
