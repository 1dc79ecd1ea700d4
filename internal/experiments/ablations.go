package experiments

import (
	"fmt"
	"math"
	"strings"

	psbox "psbox"
	"psbox/internal/account"
	"psbox/internal/sim"
)

// Ablations probe the design choices DESIGN.md §3 calls out; they are not
// in the paper but test its mechanisms by removal.

// AblLoansResult shows what happens to Fig. 8-style fairness when the
// scheduling-loan repayment of §4.2 step 5 is disabled.
type AblLoansResult struct {
	// CoRunnerLossWithPct / WithoutPct: worst co-runner throughput loss
	// with repayment enabled and disabled.
	CoRunnerLossWithPct    float64
	CoRunnerLossWithoutPct float64
	BoxedLossWithPct       float64
	BoxedLossWithoutPct    float64
}

// AblLoans co-runs three calib3d instances, one sandboxed, with and
// without loan repayment.
func AblLoans(seed uint64) AblLoansResult {
	run := func(disable bool) (boxedLoss, worstOther float64) {
		worstOther = math.Inf(-1) // gains register as negative loss
		sys := psbox.NewAM57(seed)
		sys.Kernel.Scheduler().DisableLoanRepayment = disable
		_, before, after := confine(sys, "calib3d", 3, psbox.HWCPU, "kb", 2*sim.Second)
		for i := range before {
			loss := (1 - after[i]/before[i]) * 100
			if i == 2 {
				boxedLoss = loss
			} else if loss > worstOther {
				worstOther = loss
			}
		}
		return boxedLoss, worstOther
	}
	r := AblLoansResult{}
	r.BoxedLossWithPct, r.CoRunnerLossWithPct = run(false)
	r.BoxedLossWithoutPct, r.CoRunnerLossWithoutPct = run(true)
	return r
}

func (r AblLoansResult) String() string {
	var b strings.Builder
	b.WriteString(header("Ablation — scheduling-loan repayment (§4.2 step 5)"))
	fmt.Fprintf(&b, "with repayment:    boxed loses %5.1f%%, worst co-runner change %+5.1f%%\n",
		r.BoxedLossWithPct, -r.CoRunnerLossWithPct)
	fmt.Fprintf(&b, "without repayment: boxed loses %5.1f%%, worst co-runner change %+5.1f%%\n",
		r.BoxedLossWithoutPct, -r.CoRunnerLossWithoutPct)
	b.WriteString("→ with repayment the sandbox pays and co-runners inherit the freed share;\n")
	b.WriteString("  without it the sandbox free-rides on its queue-jumping loans\n")
	return b.String()
}

// AblStateVirtResult shows the Fig. 3(c) lingering-state leak returning
// into sandbox observations when CPU power-state virtualization is off.
type AblStateVirtResult struct {
	LeakWithPct    float64 // observation shift after a hot co-runner, virtualized
	LeakWithoutPct float64 // same, with virtualization disabled
}

// AblStateVirt measures a sandboxed burst's energy after an idle vs busy
// period, with and without power-state virtualization.
func AblStateVirt(seed uint64) AblStateVirtResult {
	observe := func(disable, preheat bool) float64 {
		sys := lingering(seed, preheat)
		sys.Sandbox.DisableStateVirt = disable
		app := sys.Kernel.NewApp("subject")
		app.Spawn("burst", 0, psbox.Loop(psbox.Compute{Cycles: 1e6}))
		box := sys.Sandbox.MustCreate(app, psbox.HWCPU)
		box.Enter()
		sys.Run(20 * sim.Millisecond)
		return box.Read()
	}
	leak := func(disable bool) float64 {
		cold := observe(disable, false)
		hot := observe(disable, true)
		return math.Abs(hot-cold) / cold * 100
	}
	return AblStateVirtResult{
		LeakWithPct:    leak(false),
		LeakWithoutPct: leak(true),
	}
}

func (r AblStateVirtResult) String() string {
	var b strings.Builder
	b.WriteString(header("Ablation — power-state virtualization (§4.1)"))
	fmt.Fprintf(&b, "observation shift after a hot co-runner, virtualized:   %5.1f%%\n", r.LeakWithPct)
	fmt.Fprintf(&b, "observation shift after a hot co-runner, unvirtualized: %5.1f%%\n", r.LeakWithoutPct)
	b.WriteString("→ without virtualization the co-runner's DVFS residue leaks into the sandbox\n")
	return b.String()
}

// AblDrainBillingResult compares the conservative full-device drain
// billing against the paper's literal idle-only rule.
type AblDrainBillingResult struct {
	BoxedLossFullPct float64
	OtherLossFullPct float64
	BoxedLossIdlePct float64
	OtherLossIdlePct float64
}

// AblDrainBilling re-runs the Fig. 8 DSP scenario under both billing
// rules.
func AblDrainBilling(seed uint64) AblDrainBillingResult {
	run := func(idleOnly bool) (boxed, worstOther float64) {
		sys := psbox.NewAM57(seed)
		sys.Kernel.Accel("dsp").BillDrainIdleOnly = idleOnly
		_, before, after := confine(sys, "sgemm", 3, psbox.HWDSP, "gflops", 3*sim.Second)
		for i := range before {
			loss := (1 - after[i]/before[i]) * 100
			if i == 2 {
				boxed = loss
			} else if loss > worstOther {
				worstOther = loss
			}
		}
		return boxed, worstOther
	}
	r := AblDrainBillingResult{}
	r.BoxedLossFullPct, r.OtherLossFullPct = run(false)
	r.BoxedLossIdlePct, r.OtherLossIdlePct = run(true)
	return r
}

func (r AblDrainBillingResult) String() string {
	var b strings.Builder
	b.WriteString(header("Ablation — drain-phase billing rule (§4.2 phase 1)"))
	fmt.Fprintf(&b, "full-device billing: boxed loses %5.1f%%, worst co-runner %5.1f%%\n",
		r.BoxedLossFullPct, r.OtherLossFullPct)
	fmt.Fprintf(&b, "idle-only billing:   boxed loses %5.1f%%, worst co-runner %5.1f%%\n",
		r.BoxedLossIdlePct, r.OtherLossIdlePct)
	b.WriteString("→ the conservative rule charges the sandbox more and shields co-runners better\n")
	return b.String()
}

// AblMeterRateResult shows that raising the metering rate does not rescue
// the baseline accounting: entanglement is structural (§2.3).
type AblMeterRateResult struct {
	PeriodsUs []float64
	DevPct    []float64 // baseline deviation of the Fig. 6 CPU scenario per rate
}

// AblMeterRate sweeps the accounting window from 1 ms down to 10 µs.
func AblMeterRate(seed uint64) AblMeterRateResult {
	r := AblMeterRateResult{}
	for _, w := range []sim.Duration{
		1 * sim.Millisecond, 100 * sim.Microsecond, 10 * sim.Microsecond,
	} {
		measure := func(co bool) float64 {
			sc := scene{platform: psbox.NewAM57, victim: "calib3d", span: 3 * sim.Second}
			if co {
				sc.co = []string{"bodytrack"}
			}
			sys, victim, _ := sc.run(seed, false)
			acc := sys.Accountant("cpu", account.PolicyUsageShare)
			acc.Window = w
			return acc.AppEnergy(victim.ID, 0, sys.Now())
		}
		alone := measure(false)
		co := measure(true)
		r.PeriodsUs = append(r.PeriodsUs, w.Microseconds())
		r.DevPct = append(r.DevPct, (co-alone)/alone*100)
	}
	return r
}

func (r AblMeterRateResult) String() string {
	var b strings.Builder
	b.WriteString(header("Ablation — metering rate vs baseline accounting (§2.3)"))
	for i := range r.PeriodsUs {
		fmt.Fprintf(&b, "window %8.0f µs: baseline deviation %+6.1f%%\n", r.PeriodsUs[i], r.DevPct[i])
	}
	b.WriteString("→ finer metering does not undo entanglement: the deviation persists at every rate\n")
	return b.String()
}
