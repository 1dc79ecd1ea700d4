package experiments

import (
	"fmt"
	"strings"

	psbox "psbox"
	"psbox/internal/sim"
)

// Fig8Instance is one co-running instance's throughput before and after
// one instance (the boxed one) enters its psbox.
type Fig8Instance struct {
	Name      string
	Boxed     bool
	Before    float64 // units/s
	After     float64
	ChangePct float64
}

// Fig8Domain is one subplot of Fig. 8.
type Fig8Domain struct {
	Domain    string
	Unit      string
	Instances []Fig8Instance

	BoxedLossPct   float64 // throughput loss of the sandboxed instance
	WorstOtherLoss float64 // most-negative change among the others
}

// Fig8Result is the four-panel figure.
type Fig8Result struct {
	Domains []Fig8Domain
}

type fig8Scenario struct {
	unit      string
	platform  func(uint64) *psbox.System
	wl        string
	instances int
	scope     psbox.HW
	counter   string
	window    sim.Duration
}

func fig8Scenarios() []fig8Scenario {
	return []fig8Scenario{
		{"KB/s", psbox.NewAM57, "calib3d", 3, psbox.HWCPU, "kb", 2 * sim.Second},
		{"GFLOPS", psbox.NewAM57, "sgemm", 3, psbox.HWDSP, "gflops", 3 * sim.Second},
		{"cmds/s", psbox.NewAM57, "cube", 2, psbox.HWGPU, "cmds", 2 * sim.Second},
		{"KB/s", psbox.NewBeagleBone, "wget", 2, psbox.HWWiFi, "bytes", 3 * sim.Second},
	}
}

// confine is the Fig. 8 measurement on sys: n instances of wl, all
// saturating because the figure is about who pays under contention, warm
// up for 500 ms; counter is read over one window, the last instance
// enters its psbox on scope, and counter is read over a second window.
// It returns the instances and each one's counter deltas over the two
// windows.
func confine(sys *psbox.System, wl string, n int, scope psbox.HW, counter string, window sim.Duration) (apps []*psbox.App, before, after []float64) {
	apps = make([]*psbox.App, n)
	for i := range apps {
		apps[i] = install(sys, wl, true)
	}
	sys.Run(500 * sim.Millisecond)
	read := func() []float64 {
		v := make([]float64, n)
		for i, a := range apps {
			v[i] = a.Counter(counter)
		}
		return v
	}
	c0 := read()
	sys.Run(window)
	c1 := read()
	sys.Sandbox.MustCreate(apps[n-1], scope).Enter()
	sys.Run(window)
	c2 := read()
	before, after = make([]float64, n), make([]float64, n)
	for i := range apps {
		before[i], after[i] = c1[i]-c0[i], c2[i]-c1[i]
	}
	return apps, before, after
}

// Fig8 co-runs identical saturating instances, measures per-instance
// throughput, sandboxes one, and measures again.
func Fig8(seed uint64) Fig8Result {
	var out Fig8Result
	for _, sc := range fig8Scenarios() {
		apps, before, after := confine(sc.platform(seed), sc.wl, sc.instances, sc.scope, sc.counter, sc.window)
		d := Fig8Domain{Domain: string(sc.scope), Unit: sc.unit}
		sec := sc.window.Seconds()
		scale := 1.0
		if sc.counter == "bytes" {
			scale = 1.0 / 1024
		}
		for i, a := range apps {
			inst := Fig8Instance{
				Name:   a.Name,
				Boxed:  i == len(apps)-1,
				Before: before[i] / sec * scale,
				After:  after[i] / sec * scale,
			}
			inst.ChangePct = pct(inst.After, inst.Before)
			d.Instances = append(d.Instances, inst)
			if inst.Boxed {
				d.BoxedLossPct = -inst.ChangePct
			} else if inst.ChangePct < d.WorstOtherLoss {
				d.WorstOtherLoss = inst.ChangePct
			}
		}
		out.Domains = append(out.Domains, d)
	}
	return out
}

func (r Fig8Result) String() string {
	var b strings.Builder
	b.WriteString(header("Fig. 8 — throughput of co-running instances, before and after one (*) enters psbox"))
	for _, d := range r.Domains {
		fmt.Fprintf(&b, "\n(%s, %s)\n", strings.ToUpper(d.Domain), d.Unit)
		for _, in := range d.Instances {
			star := " "
			if in.Boxed {
				star = "*"
			}
			fmt.Fprintf(&b, "  %-14s%s before %9.2f  after %9.2f  (%+6.1f%%)\n",
				in.Name, star, in.Before, in.After, in.ChangePct)
		}
		fmt.Fprintf(&b, "  boxed instance loses %.1f%%; worst co-runner change %+.1f%%\n",
			d.BoxedLossPct, d.WorstOtherLoss)
	}
	b.WriteString("\n→ only the sandboxed instance pays; co-runners keep (at least) their previous throughput\n")
	return b.String()
}
