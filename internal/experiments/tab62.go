package experiments

import (
	"fmt"
	"strings"

	psbox "psbox"
	"psbox/internal/sim"
)

// Tab62Row is one domain's overhead measurements (§6.2).
type Tab62Row struct {
	Domain string

	// LatencyBase/LatencyBoxed are the relevant access-latency metric
	// without/with the victim sandboxed: CPU wakeup latency, accelerator
	// dispatch latency, WiFi queueing latency.
	LatencyBase  sim.Duration
	LatencyBoxed sim.Duration
	LatencyDelta sim.Duration

	// TotalLossPct is the loss in combined hardware throughput caused by
	// the sandbox (lost sharing opportunities).
	TotalLossPct float64
}

// Tab62Result is the §6.2 cost table.
type Tab62Result struct {
	Rows []Tab62Row

	// ShootdownIPI is the per-shootdown inter-processor-interrupt latency
	// added to CPU scheduling (the "tens of µs" figure).
	ShootdownIPI sim.Duration
}

// Tab62 measures latency increases and total throughput loss per domain.
func Tab62(seed uint64) Tab62Result {
	out := Tab62Result{}

	// CPU: calib3d×3 saturating; latency metric = mean wakeup latency of a
	// periodic probe app; throughput = total kb.
	cpuRun := func(boxed bool) (sim.Duration, float64) {
		sys := psbox.NewAM57(seed)
		apps := []*psbox.App{
			install(sys, "calib3d", true),
			install(sys, "calib3d", true),
			install(sys, "calib3d", true),
		}
		probe := sys.Kernel.NewApp("probe")
		probe.Spawn("p", 0, psbox.Loop(
			psbox.Compute{Cycles: 2e5},
			psbox.Sleep{D: 10 * psbox.Millisecond},
		))
		if boxed {
			sys.Sandbox.MustCreate(apps[0], psbox.HWCPU).Enter()
		}
		sys.Run(3 * psbox.Second)
		var total float64
		for _, a := range apps {
			total += a.Counter("kb")
		}
		return sys.Kernel.Scheduler().MeanWakeupLatency(), total
	}
	latB, thrB := cpuRun(false)
	latX, thrX := cpuRun(true)
	out.Rows = append(out.Rows, Tab62Row{
		Domain: "cpu", LatencyBase: latB, LatencyBoxed: latX,
		LatencyDelta: latX - latB, TotalLossPct: -pct(thrX, thrB),
	})
	out.ShootdownIPI = 15 * sim.Microsecond

	// GPU, DSP and WiFi: the victim beside one co-runner. Latency is the
	// victim's dispatch latency (queueing latency on WiFi); throughput is
	// the pair's total commands, work or bytes. The DSP's long commands
	// make drains long.
	for _, d := range []struct {
		scene
		measure func(sys *psbox.System, victim, other *psbox.App) (sim.Duration, float64)
	}{
		{scene{platform: psbox.NewAM57, victim: "browser", co: []string{"magic"}, scope: psbox.HWGPU, span: 3 * sim.Second},
			func(sys *psbox.System, victim, other *psbox.App) (sim.Duration, float64) {
				drv := sys.Kernel.Accel("gpu")
				return drv.MeanDispatchLatency(victim.ID), float64(drv.Completed(victim.ID) + drv.Completed(other.ID))
			}},
		{scene{platform: psbox.NewAM57, victim: "dgemm", co: []string{"sgemm"}, scope: psbox.HWDSP, span: 5 * sim.Second},
			func(sys *psbox.System, victim, other *psbox.App) (sim.Duration, float64) {
				drv := sys.Kernel.Accel("dsp")
				return drv.MeanDispatchLatency(victim.ID), drv.WorkDone(victim.ID) + drv.WorkDone(other.ID)
			}},
		{scene{platform: psbox.NewBeagleBone, victim: "browserw", co: []string{"scp"}, scope: psbox.HWWiFi, span: 4 * sim.Second},
			func(sys *psbox.System, victim, other *psbox.App) (sim.Duration, float64) {
				nd := sys.Kernel.Net()
				return nd.MeanQueueingLatency(victim.ID), float64(nd.SentBytes(victim.ID) + nd.SentBytes(other.ID))
			}},
	} {
		run := func(boxed bool) (sim.Duration, float64) {
			sys, victim, _ := d.run(seed, boxed)
			return d.measure(sys, victim, sys.Kernel.Apps()[1])
		}
		latB, thrB = run(false)
		latX, thrX = run(true)
		out.Rows = append(out.Rows, Tab62Row{
			Domain: string(d.scope), LatencyBase: latB, LatencyBoxed: latX,
			LatencyDelta: latX - latB, TotalLossPct: -pct(thrX, thrB),
		})
	}

	return out
}

func (r Tab62Result) String() string {
	var b strings.Builder
	b.WriteString(header("§6.2 — performance impact of psbox"))
	fmt.Fprintf(&b, "CPU task-shootdown IPI latency: %v per shootdown\n\n", r.ShootdownIPI)
	fmt.Fprintf(&b, "%-6s %14s %14s %14s %16s\n", "scope", "latency w/o", "latency w/", "Δ latency", "total thr. loss")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s %14v %14v %14v %15.1f%%\n",
			row.Domain, row.LatencyBase, row.LatencyBoxed, row.LatencyDelta, row.TotalLossPct)
	}
	b.WriteString("\n→ latency grows where drains are long (DSP, WiFi); total throughput loss stays single-digit\n")
	return b.String()
}
