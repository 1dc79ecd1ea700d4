package fleet

import (
	"sort"

	"psbox"
	"psbox/internal/faults"
	"psbox/internal/obs"
	"psbox/internal/obs/profile"
	"psbox/internal/sandbox"
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
	sys.EnableProfiling()
	sys.EnableAccelWatchdogs(psbox.DefaultWatchdogConfig())

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

// ChurnScenario is the fleet's sandbox-churn workload: every shard hosts
// a runtime session manager driving live session churn — a finite steady
// that retires, a bursty pulse, a budget hog that climbs the throttle →
// kill → restart ladder, and a crash-looper the fault layer kills until
// the circuit breaker quarantines it — plus late arrivals (one of them
// over-budget, so admission control has a rejection to make). The
// enforcement cadence scales with the horizon so the whole lifecycle
// fits any shard length. A pure function of (seed, horizon), like
// DefaultScenario: every attempt of a shard, clean or resumed from a
// checkpoint, rebuilds the identical event sequence.
func ChurnScenario(shard int, seed uint64, horizon sim.Duration) *psbox.System {
	sys := psbox.NewMobile(seed)
	sys.EnableProfiling()
	mgr := sys.Sandboxes()
	cfg := sandbox.DefaultConfig(6)
	cfg.Window = horizon / 20
	cfg.ThrottleAfter = 2
	cfg.KillAfter = 2
	cfg.BackoffBase = horizon / 50
	cfg.BackoffCap = horizon / 10
	cfg.BreakerWindow = horizon / 2
	mgr.SetConfig(cfg)

	steady := func(name string, budget float64) sandbox.Spec {
		step := horizon / 40
		var seq []psbox.Action
		for i := 0; i < 10; i++ {
			seq = append(seq, psbox.Compute{Cycles: 3e5}, psbox.Sleep{D: step})
		}
		return sandbox.Spec{Name: name, BudgetW: budget,
			Start: func(app *psbox.App) { app.Spawn("work", 0, psbox.Sequence(seq...)) }}
	}
	mustLaunch := func(spec sandbox.Spec) {
		if _, err := mgr.Launch(spec); err != nil {
			panic("fleet: churn resident rejected: " + err.Error())
		}
	}
	mustLaunch(steady("steady-0", 1.0))
	mustLaunch(sandbox.Spec{Name: "pulse-0", BudgetW: 0.8,
		Start: func(app *psbox.App) {
			app.Spawn("burst", 0, psbox.Loop(
				psbox.Compute{Cycles: 2e6},
				psbox.Sleep{D: horizon / 8},
			))
		}})
	mustLaunch(sandbox.Spec{Name: "hog-0", BudgetW: 0.3,
		Start: func(app *psbox.App) {
			app.Spawn("spin", 0, psbox.Loop(psbox.Compute{Cycles: 5e5}))
		}})
	mustLaunch(sandbox.Spec{Name: "crashloop-0", BudgetW: 0.8, PreserveData: true,
		Start: func(app *psbox.App) {
			app.Spawn("work", 0, psbox.ProgramFunc(func(env *psbox.Env) psbox.Action {
				env.Count("iters", 1)
				return psbox.Sleep{D: horizon / 100}
			}))
		}})

	// Session churn: a late steady (admitted as the first retires), and an
	// over-budget arrival admission control must reject. The seed jitters
	// the late arrival's instant so shards don't churn in lockstep.
	at := func(frac float64) psbox.Time {
		return psbox.Time(int64(float64(horizon)*frac) + int64(seed%5)*int64(horizon/200))
	}
	late := steady("steady-1", 1.0)
	sys.Eng.At(at(0.55), func(psbox.Time) { _, _ = mgr.Launch(late) })
	greedy := steady("greedy", 9.0)
	sys.Eng.At(at(0.60), func(psbox.Time) { _, _ = mgr.Launch(greedy) })

	// The crash campaign: three kills inside the breaker window quarantine
	// the crash-looper on the third.
	for _, frac := range []float64{0.30, 0.40, 0.48} {
		sys.Faults.CrashSessionAt(at(frac), "crashloop-0")
	}

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
