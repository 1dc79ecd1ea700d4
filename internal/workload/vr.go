package workload

import (
	"fmt"

	"psbox/internal/kernel"
	"psbox/internal/sim"
)

// FidelityLevel is one operating point of the VR renderer: work per frame
// and frame rate trade quality for power.
type FidelityLevel struct {
	Name           string
	CyclesPerFrame float64
	Period         sim.Duration
}

// VRFidelityLevels is the renderer's quality ladder, lowest power first.
var VRFidelityLevels = []FidelityLevel{
	{Name: "minimal", CyclesPerFrame: 0.8e6, Period: 66 * sim.Millisecond},
	{Name: "low", CyclesPerFrame: 2.5e6, Period: 50 * sim.Millisecond},
	{Name: "medium", CyclesPerFrame: 6e6, Period: 33 * sim.Millisecond},
	{Name: "high", CyclesPerFrame: 12e6, Period: 22 * sim.Millisecond},
	{Name: "ultra", CyclesPerFrame: 20e6, Period: 16 * sim.Millisecond},
}

// VR is the §6.4 end-to-end use case: a gesture-recognition task whose
// load varies with scene content (the number of hand contours per frame),
// and a rendering task that animates water waves and can trade fidelity
// for power at run time.
type VR struct {
	fidelity int
	contours int
}

// NewVR builds the scenario at the given initial fidelity level.
func NewVR(initialFidelity int) *VR {
	if initialFidelity < 0 || initialFidelity >= len(VRFidelityLevels) {
		panic(fmt.Sprintf("workload: fidelity %d out of range", initialFidelity))
	}
	return &VR{fidelity: initialFidelity, contours: 3}
}

// Fidelity reports the renderer's current level.
func (v *VR) Fidelity() int { return v.fidelity }

// SetFidelity moves the renderer to a level; the next frame uses it. This
// is the knob the power-aware adaptation loop turns.
func (v *VR) SetFidelity(l int) {
	if l < 0 {
		l = 0
	}
	if l >= len(VRFidelityLevels) {
		l = len(VRFidelityLevels) - 1
	}
	v.fidelity = l
}

// Contours exposes the gesture task's current scene complexity (tests and
// traces).
func (v *VR) Contours() int { return v.contours }

// GestureSpec instantiates the gesture task as its own principal (the
// paper sandboxes the rendering task alone; a psbox may enclose "one or a
// group of user processes").
func (v *VR) GestureSpec(cores int) AppSpec {
	s := v.Spec(cores)
	return AppSpec{Name: instanceName("vr-gesture"), Domain: "cpu",
		Desc: "VR gesture-recognition task", Threads: s.Threads[:1]}
}

// RenderSpec instantiates the rendering task as its own principal.
func (v *VR) RenderSpec(cores int) AppSpec {
	s := v.Spec(cores)
	return AppSpec{Name: instanceName("vr-render"), Domain: "cpu",
		Desc: "VR adaptive rendering task", Threads: s.Threads[1:]}
}

// Spec instantiates the two tasks. The gesture task runs on core 0 and the
// renderer on core min(1, cores-1).
func (v *VR) Spec(cores int) AppSpec {
	renderCore := 1
	if renderCore >= cores {
		renderCore = 0
	}
	gesture := kernel.ProgramFunc(func() func(*kernel.Env) kernel.Action {
		step := 0
		return func(env *kernel.Env) kernel.Action {
			step++
			if step%2 == 1 {
				// Contours follow a bounded random walk: the inputs (hand
				// positions) vary, and with them the gesture task's power
				// impact — the co-runner noise of Fig. 9.
				v.contours += env.Rand.Intn(3) - 1
				if v.contours < 0 {
					v.contours = 0
				}
				if v.contours > 8 {
					v.contours = 8
				}
				cycles := 3e6 + float64(float64(v.contours)*1.1e6)
				return kernel.Compute{Cycles: float64(env.Rand.Jitter(int64(cycles), 0.1))}
			}
			env.Count("gesture_frames", 1)
			return kernel.Sleep{D: 33 * sim.Millisecond}
		}
	}())
	render := kernel.ProgramFunc(func() func(*kernel.Env) kernel.Action {
		step := 0
		var frameStart sim.Time
		return func(env *kernel.Env) kernel.Action {
			step++
			lvl := VRFidelityLevels[v.fidelity]
			if step%2 == 1 {
				frameStart = env.Now()
				return kernel.Compute{Cycles: float64(env.Rand.Jitter(int64(lvl.CyclesPerFrame), 0.08))}
			}
			env.Count("render_frames", 1)
			// Deadline pacing: sleep only the residual of the frame period.
			// An overloaded renderer (heavy fidelity at a low clock) runs
			// back to back, which is what drives the DVFS governor up.
			if spent := env.Now().Sub(frameStart); spent < lvl.Period {
				return kernel.Sleep{D: lvl.Period - spent}
			}
			return kernel.Compute{Cycles: 1}
		}
	}())
	return AppSpec{
		Name:   instanceName("vr"),
		Domain: "cpu",
		Desc:   "VR water-wave scene: gesture recognition + adaptive rendering (§6.4)",
		Threads: []ThreadSpec{
			{Name: "gesture", Core: 0, Prog: gesture},
			{Name: "render", Core: renderCore, Prog: render},
		},
	}
}
