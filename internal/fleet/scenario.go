package fleet

import (
	"sort"

	"psbox"
	"psbox/internal/faults"
	"psbox/internal/obs"
	"psbox/internal/obs/profile"
	"psbox/internal/sim"
	"psbox/internal/soak"
)

// DefaultScenario is the fleet's canonical per-shard workload: the mobile
// platform (CPU + GPU + DSP + WiFi + display + GPS + DRAM) under the
// three-app mix of the soak harness — a sandboxed GPU renderer, a
// sandboxed uplink streamer, an unsandboxed background grinder — plus a
// shard-seeded randomized fault campaign, tracing, accel watchdogs, and a
// periodic invariant audit. A pure function of (seed, horizon): every
// attempt of a shard rebuilds the identical event sequence.
func DefaultScenario(shard int, seed uint64, horizon sim.Duration) *psbox.System {
	sys := psbox.NewMobile(seed)
	sys.EnableTracing()
	sys.EnableProfiling()
	sys.EnableAccelWatchdogs()

	soak.Mix(sys)

	sys.Faults.Randomize(faults.Campaign{
		Horizon:       horizon,
		AccelHangs:    1,
		NICFlaps:      1,
		DVFSStalls:    1,
		MeterDropouts: 2,
	})
	sys.SetAuditEvery(horizon / 10)
	return sys
}

// BoxRead is one sandbox's observed energy in a shard report.
type BoxRead struct {
	App      string
	DirectJ  float64
	EstJ     float64
	Gaps     int
	Degraded bool
}

// AppBlame is one principal's attributed battery energy over a shard's
// horizon ("kernel" collects kernel activity and the idle floor).
type AppBlame struct {
	App string
	J   float64
}

// ShardReport is one completed shard's deterministic summary: the rollup
// currency the fleet merge aggregates. It contains only simulated
// quantities — never wall-clock time, worker identity, or attempt count —
// so a shard's report is byte-identical whether it ran clean, resumed
// from a checkpoint, or succeeded on its last retry.
type ShardReport struct {
	BatteryJ    float64
	Boxes       []BoxRead  // sorted by app name
	Blame       []AppBlame // the profile summed by principal, sorted by name
	Faults      int        // injected faults that fired
	Audits      uint64     // periodic invariant audits
	TraceEvents uint64     // total events emitted on the obs bus

	// Metrics is the shard's metrics-registry dump (counters, gauges,
	// sim-time histograms); the fleet rollup merges these bucket-wise.
	Metrics *obs.MetricsDump

	// Profile is the shard's folded energy tree in canonical order, with
	// its window accounting: ProfileDegraded counts the folded windows
	// that overlap a meter dropout.
	Profile         []profile.Entry
	ProfileWindows  uint64
	ProfileDegraded uint64
}

// Summarize renders a finished system into its shard report: sandbox
// reads, the battery rail's energy, and the power-attribution rollup over
// the whole run. The rollup is the energy profile, folded through now, and
// its sum by principal.
func Summarize(sys *psbox.System) *ShardReport {
	rep := &ShardReport{
		BatteryJ:    float64(sys.Meter.Energy("battery", 0, sys.Now())),
		Faults:      len(sys.Faults.Log()),
		Audits:      sys.Audits(),
		TraceEvents: sys.Trace.Total(),
		Metrics:     sys.Trace.DumpMetrics(),
	}
	// Fold whatever the profiler hasn't seen yet, then capture the tree.
	// A scenario that never enabled profiling leaves it, and Blame, empty.
	sys.FoldProfile()
	rep.Profile = sys.Profile.Entries()
	rep.ProfileWindows = sys.Profile.Windows()
	rep.ProfileDegraded = sys.Profile.Degraded()
	for _, bx := range sys.Sandbox.Boxes() {
		direct, est, gaps := bx.ReadDetail()
		rep.Boxes = append(rep.Boxes, BoxRead{
			App:      bx.App().Name,
			DirectJ:  direct,
			EstJ:     est,
			Gaps:     gaps,
			Degraded: bx.Degraded(),
		})
	}
	sort.Slice(rep.Boxes, func(i, j int) bool { return rep.Boxes[i].App < rep.Boxes[j].App })

	// Blame is the profile summed by app, in canonical entry order. The
	// idle floor is energy no span explains, so it is the kernel's.
	joules := make(map[string]float64)
	for _, e := range rep.Profile {
		app := e.App
		if app == profile.IdleApp {
			app = "kernel"
		}
		//psbox:allow-energyaccum summing already-integrated profile stacks (share × sampled W × meter period) in canonical entry order, not raw power×dt
		joules[app] += e.J
	}
	blamed := make([]string, 0, len(joules))
	for name := range joules {
		blamed = append(blamed, name)
	}
	sort.Strings(blamed)
	for _, name := range blamed {
		rep.Blame = append(rep.Blame, AppBlame{App: name, J: joules[name]})
	}
	return rep
}
