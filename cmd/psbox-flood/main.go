// Command psbox-flood is the sandbox-manager load generator: from one
// seed it derives a schedule of session arrivals — finite steadies that
// retire, bursty pulses, budget hogs, crash-loopers, and accelerator
// leakers — launches them against a fixed power capacity, and lets the
// manager's enforcement ladder (admit → run → throttle → kill → restart →
// retire/quarantine) churn through them to the horizon. The end-of-run
// report (admission plan, per-session verdicts, enforcement tallies,
// energy reclaimed) is byte-stable for a (seed, ms) pair.
//
// With -soak it runs the flood under the crash-and-resume protocol of
// internal/soak: checkpoints every horizon/10, kills at 25/50/75% of the
// horizon, restore by replay-twin verification (rebuild, replay,
// byte-verify), and a byte comparison of each resumed run's report
// against the uninterrupted golden run's. The CI flood-soak job diffs the
// -soak transcript against the goldens under testdata/.
//
// Usage:
//
//	psbox-flood [-seed N] [-ms D] [-soak]
//
// Exit status (the protocol verdicts psbox-soak also uses, so the fleet
// supervisor can reuse its triage):
//
//	0  report produced; with -soak, every resumed report matched
//	1  divergence: a resumed report deviated from the golden run
//	2  restore failure: a checkpoint was missing or failed verification
//	4  usage error
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"psbox"
	"psbox/internal/obs"
	"psbox/internal/sandbox"
	"psbox/internal/sim"
	"psbox/internal/soak"
)

const exitUsage = 4

// capacityW is the flood's admittable power: low enough that the derived
// arrival schedule overcommits it and admission control has rejections to
// make.
const capacityW = 6.0

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psbox-flood", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 42, "simulation seed")
	ms := fs.Int64("ms", 2000, "simulated duration in milliseconds")
	soakMode := fs.Bool("soak", false, "run the crash-and-resume protocol and report restore equivalence")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *ms <= 0 {
		fmt.Fprintln(stderr, "psbox-flood: -ms must be positive")
		return exitUsage
	}
	if *soakMode {
		out, code := transcript(*seed, *ms)
		fmt.Fprint(stdout, out)
		return code
	}
	horizon := sim.Duration(*ms) * psbox.Millisecond
	sys, plan := build(*seed, horizon)
	sys.Run(horizon)
	fmt.Fprintf(stdout, "psbox-flood seed=%d ms=%d capacity=%.1f W\n\n", *seed, *ms, capacityW)
	fmt.Fprint(stdout, report(sys, plan))
	return soak.ExitOK
}

// arrival is one planned session launch.
type arrival struct {
	at     psbox.Time
	kind   string
	name   string
	budget float64
}

// specFor builds the Spec for an arrival. Kinds:
//
//	steady    finite well-behaved worker; retires on its own
//	pulse     infinite bursty worker; stays under budget
//	hog       spins flat out under a tiny budget; climbs the whole ladder
//	crashloop preserve_data worker crashed repeatedly by the fault layer
//	          until the circuit breaker quarantines it
//	leaker    floods the GPU queue without awaiting; killed on the
//	          backlog bound, then breaker-quarantined for recidivism
func specFor(a arrival, reps int) sandbox.Spec {
	spec := sandbox.Spec{Name: a.name, BudgetW: a.budget}
	switch a.kind {
	case "steady":
		var seq []psbox.Action
		for i := 0; i < reps; i++ {
			seq = append(seq, psbox.Compute{Cycles: 3e5}, psbox.Sleep{D: 6 * psbox.Millisecond})
		}
		spec.Start = func(app *psbox.App) {
			app.Spawn("work", 0, psbox.Sequence(seq...))
		}
	case "pulse":
		spec.Start = func(app *psbox.App) {
			app.Spawn("burst", 0, psbox.Loop(
				psbox.Compute{Cycles: 2e6},
				psbox.Sleep{D: 30 * psbox.Millisecond},
			))
		}
	case "hog":
		spec.Start = func(app *psbox.App) {
			app.Spawn("spin", 0, psbox.Loop(psbox.Compute{Cycles: 5e5}))
		}
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
		panic("psbox-flood: unknown kind " + a.kind)
	}
	return spec
}

// build constructs the flood scenario and returns it with the arrival plan
// the seed derived: the session manager over an AM57 system, the plan's
// launches scheduled at fixed absolute times, fault-layer crash campaigns
// against the crash-loopers, and an invariant audit every horizon/20.
func build(seed uint64, horizon sim.Duration) (*psbox.System, []arrival) {
	sys := psbox.NewAM57(seed)
	sys.EnableTracing()
	mgr := sys.Sandboxes()
	cfg := sandbox.DefaultConfig(capacityW)
	mgr.SetConfig(cfg)

	// The arrival plan. One resident of every kind anchors the load at
	// t=0 — enforcement demonstrably fires on each misbehavior class
	// regardless of how the random arrivals land. The rest arrive spread
	// over the first half of the horizon, so each has the tail end to be
	// enforced against; their budgets overcommit the capacity and
	// admission control arbitrates as residents retire or get
	// quarantined.
	rnd := sim.NewRand(seed) // the flood's only randomness: the plan is a pure function of the seed
	kinds := []struct {
		kind   string
		budget float64
	}{
		{"steady", 1.0}, {"steady", 1.0}, {"pulse", 0.8},
		{"hog", 0.3}, {"crashloop", 0.8}, {"leaker", 0.8},
	}
	n := int(8 + int64(horizon)/int64(200*psbox.Millisecond))
	plan := []arrival{
		{at: 0, kind: "steady", name: "steady-0", budget: 1.0},
		{at: 0, kind: "pulse", name: "pulse-0", budget: 0.8},
		{at: 0, kind: "hog", name: "hog-0", budget: 0.3},
		{at: 0, kind: "crashloop", name: "crashloop-0", budget: 0.8},
		{at: 0, kind: "leaker", name: "leaker-0", budget: 0.8},
	}
	span := int64(float64(horizon) * 0.5)
	for i := 0; i < n; i++ {
		k := kinds[rnd.Intn(len(kinds))]
		at := psbox.Time(int64(i+1)*span/int64(n+1) + int64(rnd.Intn(7))*int64(psbox.Millisecond))
		plan = append(plan, arrival{at: at, kind: k.kind,
			name: fmt.Sprintf("%s-%d", k.kind, i+1), budget: k.budget})
	}

	for _, a := range plan {
		a := a
		reps := 25 + rnd.Intn(30) // finite steadies live ~150-330 ms
		spec := specFor(a, reps)
		launch := func(psbox.Time) { _, _ = mgr.Launch(spec) }
		if a.at == 0 {
			launch(0)
		} else {
			sys.Eng.At(a.at, launch)
		}
		if a.kind == "crashloop" {
			// Four crashes starting shortly after arrival, 70 ms apart:
			// the first three land inside the 500 ms breaker window and
			// quarantine the session; the fourth finds it dead.
			for j := 0; j < 4; j++ {
				sys.Faults.CrashSessionAt(a.at.Add(sim.Duration(50+70*j)*psbox.Millisecond), a.name)
			}
		}
	}

	sys.SetAuditEvery(horizon / 20)
	return sys, plan
}

// report renders the end-of-run state: the arrival plan, each session's
// verdict and tallies, the manager's aggregate enforcement counts, the
// fault log, and trace digests.
func report(sys *psbox.System, plan []arrival) string {
	mgr := sys.Sandboxes()
	var b strings.Builder
	fmt.Fprintln(&b, "-- plan --")
	for _, a := range plan {
		fmt.Fprintf(&b, "t=%4d ms  %-12s budget=%.1f W\n",
			int64(a.at)/int64(psbox.Millisecond), a.name, a.budget)
	}
	fmt.Fprintln(&b, "-- sessions --")
	for _, s := range mgr.Sessions() {
		fmt.Fprintf(&b, "%-12s %-11s throttles=%d kills=%d restarts=%d",
			s.Name(), s.State(), s.Throttles(), s.Kills(), s.Restarts())
		if iters, ok := s.Preserved()["iters"]; ok {
			fmt.Fprintf(&b, " preserved-iters=%.0f", iters)
		}
		fmt.Fprintln(&b)
	}
	st := mgr.Stats()
	fmt.Fprintln(&b, "-- enforcement --")
	fmt.Fprintf(&b, "admitted=%d rejected=%d throttled=%d killed=%d restarted=%d quarantined=%d retired=%d\n",
		st.Admitted, st.Rejected, st.Throttles, st.Kills, st.Restarts, st.Quarantined, st.Retired)
	fmt.Fprintf(&b, "energy reclaimed=%.9f J headroom=%.2f W\n", st.ReclaimedJ, mgr.Headroom())
	fmt.Fprintln(&b, "-- fault log --")
	b.WriteString(sys.Faults.FormatLog())
	fmt.Fprintln(&b, "-- energy --")
	fmt.Fprintf(&b, "battery=%.9f J audits=%d\n",
		sys.Meter.Energy("battery", 0, sys.Now()), sys.Audits())
	fmt.Fprintln(&b, "-- trace --")
	fmt.Fprintf(&b, "events=%d retained=%d dropped=%d\n",
		sys.Trace.Total(), sys.Trace.Len(), sys.Trace.Dropped())
	d := sys.Trace.Dump()
	for _, format := range []string{"perfetto", "csv"} {
		enc, err := obs.EncoderFor(format)
		if err != nil {
			panic(err)
		}
		h := sha256.New()
		if err := enc.Encode(h, d); err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "%-8s sha256=%x\n", format, h.Sum(nil)[:8])
	}
	return b.String()
}

// transcript runs the flood under the crash-and-resume protocol and
// renders its deterministic transcript plus the exit code for what it
// found. The arrival plan is a pure function of the seed, so every build's
// plan is the golden run's.
func transcript(seed uint64, ms int64) (string, int) {
	horizon := sim.Duration(ms) * psbox.Millisecond
	var b strings.Builder
	fmt.Fprintf(&b, "psbox-flood seed=%d ms=%d capacity=%.1f W soak: checkpoints=every %d ms\n\n",
		seed, ms, capacityW, ms/10)
	var plan []arrival
	res := soak.Protocol{
		Build: func() *psbox.System {
			var sys *psbox.System
			sys, plan = build(seed, horizon)
			return sys
		},
		Report:  func(sys *psbox.System) string { return report(sys, plan) },
		Horizon: horizon,
	}.Run(&b)
	fmt.Fprintf(&b, "\nverdict: %s\n", res)
	return b.String(), res.Code()
}
