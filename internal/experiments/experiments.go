// Package experiments contains one runner per table and figure of the
// paper's evaluation (plus the §2 motivation figures). Each runner builds
// fresh simulated systems, drives the workloads, and returns a typed
// result whose String method prints the same rows/series the paper
// reports. DESIGN.md §3 is the index.
package experiments

import (
	"fmt"
	"strings"

	psbox "psbox"
	"psbox/internal/sim"
	"psbox/internal/workload"
)

// Experiment is a named runner; Run returns a printable result.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed uint64) fmt.Stringer
}

// All lists every paper experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig3a", "Fig. 3(a): spatial concurrency entangles CPU power", func(s uint64) fmt.Stringer { return Fig3a(s) }},
		{"fig3b", "Fig. 3(b): blurry request boundary on the GPU", func(s uint64) fmt.Stringer { return Fig3b(s) }},
		{"fig3c", "Fig. 3(c): lingering power state", func(s uint64) fmt.Stringer { return Fig3c(s) }},
		{"sec25", "§2.5: GPU power side channel", func(s uint64) fmt.Stringer { return Sec25(s) }},
		{"fig5", "Fig. 5: benchmark inventory", func(s uint64) fmt.Stringer { return Fig5() }},
		{"fig6", "Fig. 6: elimination of power entanglement", func(s uint64) fmt.Stringer { return Fig6(s) }},
		{"fig7", "Fig. 7: resource balloons in action", func(s uint64) fmt.Stringer { return Fig7(s) }},
		{"tab62", "§6.2: latency and throughput cost", func(s uint64) fmt.Stringer { return Tab62(s) }},
		{"fig8", "Fig. 8: confinement of throughput loss", func(s uint64) fmt.Stringer { return Fig8(s) }},
		{"tab63", "§6.3: robustness under extreme contention", func(s uint64) fmt.Stringer { return Tab63(s) }},
		{"fig9", "Fig. 9 + §6.4: power-aware VR app", func(s uint64) fmt.Stringer { return Fig9(s) }},
	}
}

// Extra lists the studies beyond the paper's artifacts: ablations of the
// psbox mechanisms and the §7 extension/limitation demonstrations.
func Extra() []Experiment {
	return []Experiment{
		{"abl-loans", "Ablation: scheduling-loan repayment off", func(s uint64) fmt.Stringer { return AblLoans(s) }},
		{"abl-statevirt", "Ablation: power-state virtualization off", func(s uint64) fmt.Stringer { return AblStateVirt(s) }},
		{"abl-drain", "Ablation: drain billing rule", func(s uint64) fmt.Stringer { return AblDrainBilling(s) }},
		{"abl-rate", "Ablation: metering-rate sweep", func(s uint64) fmt.Stringer { return AblMeterRate(s) }},
		{"ext7", "§7 extensions: display / GPS / DRAM scopes", func(s uint64) fmt.Stringer { return Ext7(s) }},
		{"lim-cell", "§7(3) limitation: cellular RRC states", func(s uint64) fmt.Stringer { return LimCellular(s) }},
		{"metering", "§2.2: model-based metering vs direct measurement", func(s uint64) fmt.Stringer { return Metering(s) }},
		{"alt-gang", "§7 alternative: gang reservation vs loan coscheduling", func(s uint64) fmt.Stringer { return AltGang(s) }},
		{"ext-daemon", "§7: psbox-aware userspace daemon", func(s uint64) fmt.Stringer { return ExtDaemon(s) }},
	}
}

// Lookup finds an experiment by ID across both registries.
func Lookup(id string) (Experiment, bool) {
	for _, e := range append(All(), Extra()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// install instantiates a catalog workload on a system.
func install(sys *psbox.System, name string, saturate bool) *psbox.App {
	f, ok := workload.Catalog()[name]
	if !ok {
		panic("experiments: unknown workload " + name)
	}
	return workload.Install(sys.Kernel, f(sys.Kernel.CPU().Cores(), saturate))
}

// scene is one co-run of the paper's evaluation: a periodic victim beside
// co-runners on a platform, with or without the victim's psbox on scope.
type scene struct {
	platform func(uint64) *psbox.System
	victim   string
	co       []string
	saturate bool // co-runners run back to back (SDK benchmark kernels)
	scope    psbox.HW
	span     sim.Duration
}

// run installs the victim and then each co-runner, encloses the victim on
// the scope when boxed, and runs the span. box is nil unless boxed.
func (s scene) run(seed uint64, boxed bool) (sys *psbox.System, victim *psbox.App, box *psbox.Box) {
	sys = s.platform(seed)
	victim = install(sys, s.victim, false)
	for _, c := range s.co {
		install(sys, c, s.saturate)
	}
	if boxed {
		box = sys.Sandbox.MustCreate(victim, s.scope)
		box.Enter()
	}
	sys.Run(s.span)
	return sys, victim, box
}

func pct(v, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return (v - ref) / ref * 100
}

func mj(j float64) float64 { return j * 1000 }

// header renders a section banner.
func header(title string) string {
	return fmt.Sprintf("%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// avgPower is mean watts over a span of one rail.
func avgPower(sys *psbox.System, rail string, from, to sim.Time) float64 {
	return sys.Meter.Energy(rail, from, to) / to.Sub(from).Seconds()
}
