package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"time"

	"psbox"
	"psbox/internal/sandbox"
	"psbox/internal/sim"
)

// Flood parameters, as in cmd/psbox-flood: sessions compete for 6 W of
// admittable power under the manager's default 25 ms budget window.
const (
	floodCapacityW = 6.0
	floodWindow    = 25 * sim.Millisecond
)

// arrival is one planned session launch. It is launched with
// Manager.Launch just before budget window `window` runs.
type arrival struct {
	window int
	kind   string
	name   string
	budget float64
	reps   int // steady sessions: work/sleep repetitions before retiring
}

// floodKinds is the repeating block of late arrivals. Only mortal kinds
// arrive late: a late infinite pulse that got admitted would hold its
// budget for the rest of the run, and which pulses got in would decide how
// much history the monitor walks, and so the cost of a seed. The greedy
// steady asks for more than the capacity, so admission control rejects it
// every time.
var floodKinds = []struct {
	kind, name string
	budget     float64
}{
	{"steady", "steady", 1.0}, {"hog", "hog", 0.3}, {"steady", "steady", 1.0},
	{"crashloop", "crashloop", 0.8}, {"steady", "greedy", 9.0}, {"steady", "steady", 1.0},
	{"leaker", "leaker", 0.8},
}

// floodPlan derives the arrival plan for a run of `windows` budget windows
// from the seed alone: one resident of every kind at window 0, then
// 8 + windows/8 arrivals spread over the first half of the run, so each
// has the second half to be enforced against.
func floodPlan(seed uint64, windows int) []arrival {
	r := sim.NewRand(seed ^ 0xf100d)
	reps := func() int { return 25 + r.Intn(30) } // steadies live ~150-330 ms
	plan := []arrival{
		{window: 0, kind: "steady", name: "steady-0", budget: 1.0, reps: reps()},
		{window: 0, kind: "pulse", name: "pulse-0", budget: 0.8},
		{window: 0, kind: "hog", name: "hog-0", budget: 0.3},
		{window: 0, kind: "crashloop", name: "crashloop-0", budget: 0.8},
		{window: 0, kind: "leaker", name: "leaker-0", budget: 0.8},
	}
	n := 8 + windows/8
	half := windows / 2
	for i := 0; i < n; i++ {
		k := floodKinds[i%len(floodKinds)]
		a := arrival{
			window: 1 + i*half/n + r.Intn(2),
			kind:   k.kind,
			name:   fmt.Sprintf("%s-%d", k.name, i+1),
			budget: k.budget,
		}
		if a.kind == "steady" {
			a.reps = reps()
		}
		plan = append(plan, a)
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].window < plan[j].window })
	return plan
}

// sessionSpec builds the Spec for an arrival. Kinds:
//
//	steady    finite well-behaved worker; retires on its own
//	pulse     infinite bursty worker; stays under budget
//	hog       spins flat out under a tiny budget; climbs the whole ladder
//	crashloop preserve_data worker crashed repeatedly by the fault layer
//	          until the circuit breaker quarantines it
//	leaker    floods the GPU queue without awaiting; killed on the
//	          backlog bound, then breaker-quarantined for recidivism
func sessionSpec(a arrival) sandbox.Spec {
	spec := sandbox.Spec{Name: a.name, BudgetW: a.budget}
	switch a.kind {
	case "steady":
		var seq []psbox.Action
		for i := 0; i < a.reps; i++ {
			seq = append(seq, psbox.Compute{Cycles: 3e5}, psbox.Sleep{D: 6 * psbox.Millisecond})
		}
		spec.Start = func(app *psbox.App) { app.Spawn("work", 0, psbox.Sequence(seq...)) }
	case "pulse":
		spec.Start = func(app *psbox.App) {
			app.Spawn("burst", 0, psbox.Loop(psbox.Compute{Cycles: 2e6}, psbox.Sleep{D: 30 * psbox.Millisecond}))
		}
	case "hog":
		spec.Start = func(app *psbox.App) { app.Spawn("spin", 0, psbox.Loop(psbox.Compute{Cycles: 5e5})) }
	case "crashloop":
		spec.PreserveData = true
		spec.Start = func(app *psbox.App) {
			app.Spawn("work", 0, psbox.ProgramFunc(func(env *psbox.Env) psbox.Action {
				env.Count("iters", 1)
				return psbox.Sleep{D: 5 * psbox.Millisecond}
			}))
		}
	case "leaker":
		spec.MaxBacklog = 8
		spec.Start = func(app *psbox.App) {
			app.Spawn("leak", 0, psbox.Loop(
				psbox.SubmitAccel{Dev: "gpu", Kind: "leak", Work: 5e5, DynW: 0.5},
				psbox.Sleep{D: psbox.Millisecond},
			))
		}
	default:
		panic("psboxbench: unknown session kind " + a.kind)
	}
	return spec
}

// floodSystem builds the AM57 platform with tracing on, the session
// manager at 6 W, the crash campaign against every crash-looper (four
// crashes 70 ms apart from 50 ms after arrival), and a periodic invariant
// audit.
func floodSystem(seed uint64, plan []arrival, windows int) (*psbox.System, *sandbox.Manager) {
	sys := psbox.NewAM57(seed)
	sys.EnableTracing()
	mgr := sys.Sandboxes()
	mgr.SetConfig(sandbox.DefaultConfig(floodCapacityW))
	for _, a := range plan {
		if a.kind != "crashloop" {
			continue
		}
		at := psbox.Time(int64(a.window) * int64(floodWindow))
		for j := 0; j < 4; j++ {
			sys.Faults.CrashSessionAt(at.Add(sim.Duration(50+70*j)*psbox.Millisecond), a.name)
		}
	}
	sys.SetAuditEvery(sim.Duration(windows) * floodWindow / 20)
	return sys, mgr
}

// launchDue launches every arrival planned for window w, starting at
// plan[next], and returns the new next index.
func launchDue(p *pass, mgr *sandbox.Manager, plan []arrival, next, w int) int {
	for ; next < len(plan) && plan[next].window == w; next++ {
		spec := sessionSpec(plan[next])
		p.tr.do("sandbox.launch", plan[next].name, p.root, func() { _, _ = mgr.Launch(spec) })
	}
	return next
}

// setupFlood places the t=0 sessions on a fresh system, as a pass does.
func setupFlood(p *pass, windows int) {
	plan := floodPlan(p.seed, windows)
	p.setup(func() {
		_, mgr := floodSystem(p.seed, plan, windows)
		launchDue(p, mgr, plan, 0, 0)
	})
}

// runFlood is one pass of sandbox-session churn: place the t=0 sessions,
// then for every 25 ms budget window launch the arrivals due, take a
// checkpoint every tenth of the run, and advance one window. Finally a
// replay twin rebuilt from the same plan runs to the last checkpoint's
// instant and must verify it byte for byte.
func runFlood(p *pass, windows int) {
	plan := floodPlan(p.seed, windows)
	every := windows / 10
	p.ops += len(plan)
	p.launches += int64(len(plan))
	var last []byte
	var lastAt int
	var sys *psbox.System
	var mgr *sandbox.Manager
	if !p.guard(len(plan), "flood", func() {
		next := 0
		p.setup(func() {
			sys, mgr = floodSystem(p.seed, plan, windows)
			next = launchDue(p, mgr, plan, 0, 0)
		})
		snap := func(w int) {
			p.tr.do("snapshot.encode", "", p.root, func() { last = sys.Snapshot() })
			lastAt = w
			p.snapBytes += int64(len(last))
		}
		for w := 0; w < windows; w++ {
			t0 := time.Now()
			next = launchDue(p, mgr, plan, next, w)
			if w > 0 && w%every == 0 {
				snap(w)
			}
			p.run(sys, floodWindow)
			p.steps = append(p.steps, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		snap(windows)
	}) {
		return
	}
	p.ckpt = len(last)
	p.ckptSimS = (sim.Duration(lastAt) * floodWindow).Seconds()
	p.keep = sys

	st := mgr.Stats()
	p.admitted += int64(st.Admitted)
	p.rejected += int64(st.Rejected)
	p.throttles += int64(st.Throttles)
	p.kills += int64(st.Kills)
	p.restarts += int64(st.Restarts)
	p.digest(floodDigest(sys, mgr, last))

	if err := verifyReplay(p, plan, windows, lastAt, last); err != nil {
		p.fail(len(plan), "flood replay twin: "+err.Error())
	}
}

// verifyReplay rebuilds the flood from its plan, replays it to window
// `at`, and verifies checkpoint ckpt against the replayed state.
func verifyReplay(p *pass, plan []arrival, windows, at int, ckpt []byte) (err error) {
	root := p.root
	p.root = p.tr.begin("snapshot.verify", "", root)
	defer func() {
		p.tr.end(p.root)
		p.root = root
		if r := recover(); r != nil {
			err = fmt.Errorf("replay panicked: %v", r)
		}
	}()
	twin, mgr := floodSystem(p.seed, plan, windows)
	next := launchDue(p, mgr, plan, 0, 0)
	for w := 0; w < at; w++ {
		next = launchDue(p, mgr, plan, next, w)
		p.run(twin, floodWindow)
	}
	launchDue(p, mgr, plan, next, at)
	return twin.Restore(ckpt)
}

// floodDigest renders the run's simulated outcome: every session's
// verdict and tallies, the enforcement totals, the fault log, the battery
// energy, the trace size, and the last checkpoint's hash.
func floodDigest(sys *psbox.System, mgr *sandbox.Manager, ckpt []byte) string {
	var b strings.Builder
	for _, s := range mgr.Sessions() {
		fmt.Fprintf(&b, "%s %s t=%d k=%d r=%d p=%v\n", s.Name(), s.State(), s.Throttles(), s.Kills(), s.Restarts(), s.Preserved()["iters"])
	}
	fmt.Fprintf(&b, "%+v headroom=%v\n", mgr.Stats(), mgr.Headroom())
	b.WriteString(sys.Faults.FormatLog())
	fmt.Fprintf(&b, "battery=%v trace=%d ckpt=%x\n",
		sys.Meter.Energy("battery", 0, sys.Now()), sys.Trace.Total(), sha256.Sum256(ckpt))
	return b.String()
}
