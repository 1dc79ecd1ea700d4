package experiments

import (
	"fmt"
	"sort"
	"strings"

	psbox "psbox"
	"psbox/internal/obs"
	"psbox/internal/sim"
	"psbox/internal/trace"
)

// Fig7Result shows resource multiplexing and the resulting rail power,
// before and after one app enters its psbox: CPU spatial balloons
// (calib3d* vs bodytrack) and DSP temporal balloons (dgemm* vs
// sgemm+monte).
type Fig7Result struct {
	CPUUnboxedPanel string
	CPUBoxedPanel   string
	DSPUnboxedPanel string
	DSPBoxedPanel   string

	// Overlap is the total time the victim's hardware occupancy overlapped
	// any other app's, per configuration — the quantity balloons drive to
	// zero.
	CPUOverlapUnboxedMs float64
	CPUOverlapBoxedMs   float64
	DSPOverlapUnboxedMs float64
	DSPOverlapBoxedMs   float64
}

// overlapMs computes the duration (ms) during which both the victim and
// any other owner have at least one active span.
func overlapMs(spans []obs.Interval, victim int) float64 {
	type edge struct {
		at     sim.Time
		victim bool
		delta  int
	}
	var edges []edge
	for _, s := range spans {
		edges = append(edges, edge{s.Start, s.Owner == victim, +1}, edge{s.End, s.Owner == victim, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var vAct, oAct int
	var last sim.Time
	var overlap sim.Duration
	for _, e := range edges {
		if vAct > 0 && oAct > 0 {
			overlap += e.at.Sub(last)
		}
		last = e.at
		if e.victim {
			vAct += e.delta
		} else {
			oAct += e.delta
		}
	}
	return overlap.Seconds() * 1000
}

// fig7Panel runs the scene and renders its device from `from` to the end
// of the run: one Gantt lane per app from the recorder named by the scope
// (the boxed victim starred) over that rail's power, plus the victim's
// overlap with the other apps.
func fig7Panel(seed uint64, sc scene, from sim.Time, boxed bool) (string, float64) {
	sys, victim, _ := sc.run(seed, boxed)
	dev := string(sc.scope)
	names := map[int]string{}
	for _, a := range sys.Kernel.Apps() {
		n := a.Name
		if boxed && a == victim {
			n += "*"
		}
		names[a.ID] = n
	}
	to := sys.Now()
	// The recorder is per rail (no core identity), so lanes are per
	// owner: each row shows when that app occupied the device.
	g := trace.NewGantt()
	for _, s := range sys.Recorders[dev].Spans() {
		if s.End <= from || s.Start >= to {
			continue
		}
		g.Add(names[s.Owner], names[s.Owner], s.Start, s.End)
	}
	panel := g.Render(from, to, 100) + trace.Plot([]trace.Series{{
		Name:    dev + " power",
		Samples: trace.DownsampleRail(sys.Meter.Rail(dev), from, to, to.Sub(from)/100),
	}}, from, to, 100, 8)
	return panel, overlapMs(sys.Recorders[dev].Spans(), victim.ID)
}

// Fig7 runs both scenario pairs.
func Fig7(seed uint64) Fig7Result {
	cpu := scene{platform: psbox.NewAM57, victim: "calib3d", co: []string{"bodytrack"},
		scope: psbox.HWCPU, span: 800 * sim.Millisecond}
	dsp := scene{platform: psbox.NewAM57, victim: "dgemm", co: []string{"sgemm", "monte"},
		scope: psbox.HWDSP, span: 3 * sim.Second}
	cpuFrom, dspFrom := sim.Time(600*sim.Millisecond), sim.Time(1*sim.Second)
	r := Fig7Result{}
	r.CPUUnboxedPanel, r.CPUOverlapUnboxedMs = fig7Panel(seed, cpu, cpuFrom, false)
	r.CPUBoxedPanel, r.CPUOverlapBoxedMs = fig7Panel(seed, cpu, cpuFrom, true)
	r.DSPUnboxedPanel, r.DSPOverlapUnboxedMs = fig7Panel(seed, dsp, dspFrom, false)
	r.DSPBoxedPanel, r.DSPOverlapBoxedMs = fig7Panel(seed, dsp, dspFrom, true)
	return r
}

func (r Fig7Result) String() string {
	var b strings.Builder
	b.WriteString(header("Fig. 7 — resource multiplexing and rail power, without and with psbox"))
	fmt.Fprintf(&b, "\n(a) dual-core CPU w/o psbox — victim/other overlap %.1f ms\n%s", r.CPUOverlapUnboxedMs, r.CPUUnboxedPanel)
	fmt.Fprintf(&b, "\n(b) dual-core CPU w/ psbox + spatial balloons for calib3d* — overlap %.1f ms\n%s", r.CPUOverlapBoxedMs, r.CPUBoxedPanel)
	fmt.Fprintf(&b, "\n(c) DSP w/o psbox (commands overlap freely) — overlap %.1f ms\n%s", r.DSPOverlapUnboxedMs, r.DSPUnboxedPanel)
	fmt.Fprintf(&b, "\n(d) DSP w/ psbox + temporal balloons for dgemm* — overlap %.1f ms\n%s", r.DSPOverlapBoxedMs, r.DSPBoxedPanel)
	return b.String()
}
