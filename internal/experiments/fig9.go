package experiments

import (
	"fmt"
	"strings"

	psbox "psbox"
	"psbox/internal/sim"
	"psbox/internal/trace"
	"psbox/internal/workload"
)

// Fig9Step is one adaptation decision of the VR renderer.
type Fig9Step struct {
	AtMs     float64
	AvgMW    float64 // renderer's psbox power over the last window
	Fidelity int
}

// Fig9Result is the §6.4 end-to-end use case: the rendering task samples
// its psbox power and trades fidelity for power against a budget.
type Fig9Result struct {
	// Budget sweep: the renderer converges to a fidelity level per budget;
	// DynamicRange is max/min of the achieved steady-state dynamic power
	// (above the platform idle floor), the paper's 8.9× figure.
	BudgetMW     []float64
	AchievedMW   []float64 // dynamic (above idle) renderer power
	FidelityAt   []int
	DynamicRange float64

	// Adaptation trace at a mid budget.
	Steps      []Fig9Step
	TracePanel string

	IdleFloorMW float64
}

// fig9Run runs the VR scenario with a given power budget (dynamic mW) and
// returns the steady-state dynamic power and fidelity, plus the step log.
func fig9Run(seed uint64, budgetMW float64) (float64, int, []Fig9Step, *psbox.System, *psbox.Box) {
	sys := psbox.NewAM57(seed)
	vr := workload.NewVR(2)
	workload.Install(sys.Kernel, vr.GestureSpec(2))
	render := workload.Install(sys.Kernel, vr.RenderSpec(2))
	box := sys.Sandbox.MustCreate(render, psbox.HWCPU)
	idle := sys.Kernel.CPU().IdlePower()

	var steps []Fig9Step
	window := 400 * sim.Millisecond
	lastEnergy := 0.0
	var control func(sim.Time)
	control = func(now sim.Time) {
		// Pay-as-you-go: the renderer is inside its box only while it
		// samples; here we keep it in the box across the run for a clean
		// trace and adapt every window.
		e := box.Read()
		avgW := (e - lastEnergy) / window.Seconds()
		lastEnergy = e
		dynMW := (avgW - idle) * 1000
		if dynMW < 0 {
			dynMW = 0
		}
		switch {
		case dynMW > budgetMW*1.05:
			vr.SetFidelity(vr.Fidelity() - 1)
		case dynMW < budgetMW*0.70:
			vr.SetFidelity(vr.Fidelity() + 1)
		}
		steps = append(steps, Fig9Step{
			AtMs: now.Seconds() * 1000, AvgMW: dynMW, Fidelity: vr.Fidelity(),
		})
		sys.Eng.After(window, control)
	}
	box.Enter()
	sys.Eng.After(window, control)
	sys.Run(6 * psbox.Second)

	// Steady state: mean dynamic power over the last 2 s.
	n := 0
	sum := 0.0
	for _, s := range steps {
		if s.AtMs >= 4000 {
			sum += s.AvgMW
			n++
		}
	}
	steady := sum / float64(n)
	return steady, vr.Fidelity(), steps, sys, box
}

// Fig9 sweeps power budgets and reports the achieved range.
func Fig9(seed uint64) Fig9Result {
	budgets := []float64{90, 200, 420, 800}
	r := Fig9Result{BudgetMW: budgets}
	var midSys *psbox.System
	var midBox *psbox.Box
	for i, budget := range budgets {
		mw, fid, steps, sys, box := fig9Run(seed, budget)
		r.AchievedMW = append(r.AchievedMW, mw)
		r.FidelityAt = append(r.FidelityAt, fid)
		if i == len(budgets)/2 {
			r.Steps = steps
			midSys, midBox = sys, box
		}
		if i == 0 {
			r.IdleFloorMW = sys.Kernel.CPU().IdlePower() * 1000
		}
	}
	min, max := r.AchievedMW[0], r.AchievedMW[0]
	for _, v := range r.AchievedMW {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min > 0 {
		r.DynamicRange = max / min
	}
	if midSys != nil {
		to := midSys.Now()
		from := to - sim.Time(3*sim.Second)
		r.TracePanel = trace.Plot([]trace.Series{
			{Name: "rendering (in psbox)", Samples: trace.DownsampleSamples(
				midBox.SamplesBetween(psbox.HWCPU, from, to), from, to, 30*sim.Millisecond)},
			{Name: "total cpu rail", Samples: trace.DownsampleRail(
				midSys.Meter.Rail("cpu"), from, to, 30*sim.Millisecond)},
		}, from, to, 100, 10)
	}
	return r
}

func (r Fig9Result) String() string {
	var b strings.Builder
	b.WriteString(header("Fig. 9 + §6.4 — power-aware VR rendering via psbox"))
	fmt.Fprintf(&b, "platform idle floor: %.0f mW (dynamic power reported above it)\n\n", r.IdleFloorMW)
	fmt.Fprintf(&b, "%-12s %-14s %s\n", "budget (mW)", "achieved (mW)", "fidelity")
	for i := range r.BudgetMW {
		fmt.Fprintf(&b, "%-12.0f %-14.0f %d (%s)\n", r.BudgetMW[i], r.AchievedMW[i],
			r.FidelityAt[i], workload.VRFidelityLevels[r.FidelityAt[i]].Name)
	}
	fmt.Fprintf(&b, "\ndynamic power range achieved: %.1f×\n\n", r.DynamicRange)
	b.WriteString(r.TracePanel)
	b.WriteString("→ insulated observations keep the controller stable despite the gesture task's varying load\n")
	return b.String()
}
