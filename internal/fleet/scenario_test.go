package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"psbox"
	"psbox/internal/account"
	"psbox/internal/core"
	"psbox/internal/scenario"
	"psbox/internal/sim"
	"psbox/internal/workload"
)

// TestBlameAgreesWithProfile checks a shard report's per-principal blame,
// which Summarize sums from the energy profile, against two independent
// references (checkBlameAgreesWithProfile) on DefaultScenario.
func TestBlameAgreesWithProfile(t *testing.T) {
	const horizon = 200 * sim.Millisecond
	for seed := uint64(1); seed <= 8; seed++ {
		sys := DefaultScenario(0, seed, horizon)
		sys.Run(horizon)
		checkBlameAgreesWithProfile(t, sys, seed)
	}
}

// checkBlameAgreesWithProfile checks the report Summarize makes of sys
// against two independent references. The first is the per-sample blame
// timeline (System.Blame): it splits the same sample windows by the same
// occupancy, so each principal's joules must agree (the profile's idle
// floor is part of the timeline's owner-0 "kernel" share), and both must
// mark the same windows degraded. The second is the DAQ samples
// themselves: the profile must fold every component rail's samples, and
// blame must total Σ W × period over them. It returns the report.
func checkBlameAgreesWithProfile(t *testing.T, sys *psbox.System, seed uint64) *ShardReport {
	t.Helper()
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
	}
	rep := Summarize(sys)
	names := map[int]string{0: "kernel"}
	for _, a := range sys.Kernel.Apps() {
		names[a.ID] = a.Name
	}
	period := sys.Meter.Period().Seconds()
	var sampleJ float64
	var samples, degraded uint64
	timelineJ := make(map[string]float64)
	for _, rail := range sys.Meter.Rails() {
		if rail == "battery" {
			continue
		}
		for _, s := range sys.Meter.Samples(rail, 0, sys.Now()) {
			sampleJ += float64(s.W) * period
			samples++
		}
		for _, bl := range sys.Blame(rail, 0, sys.Now()) {
			if bl.Degraded {
				degraded++
			}
			for _, sh := range bl.Shares {
				name, ok := names[sh.Owner]
				if !ok {
					name = "unknown"
				}
				timelineJ[name] += float64(sh.Frac * float64(bl.W) * period)
			}
		}
	}

	var blameJ float64
	for _, bl := range rep.Blame {
		blameJ += bl.J
		tj, ok := timelineJ[bl.App]
		if !ok {
			t.Errorf("seed %d: blame names %q, the timeline does not", seed, bl.App)
			continue
		}
		if !near(bl.J, tj) {
			t.Errorf("seed %d: %s blame %.15g J, timeline %.15g J", seed, bl.App, bl.J, tj)
		}
		delete(timelineJ, bl.App)
	}
	for app := range timelineJ {
		t.Errorf("seed %d: the timeline names %q, blame does not", seed, app)
	}
	if !near(blameJ, sampleJ) {
		t.Errorf("seed %d: total blame %.15g J, Σ W × period over the samples %.15g J", seed, blameJ, sampleJ)
	}
	if rep.ProfileWindows != samples {
		t.Errorf("seed %d: profile folded %d windows, the rails hold %d samples", seed, rep.ProfileWindows, samples)
	}
	if rep.ProfileDegraded != degraded {
		t.Errorf("seed %d: profile degraded windows %d, timeline degraded %d", seed, rep.ProfileDegraded, degraded)
	}
	return rep
}

// randomSpec draws a scenario document with FuzzScenario's argument
// scheme (internal/scenario): a platform, a seed, a 1–20 ms horizon and
// up to four catalog apps, each packed into a uint16 (low byte: workload;
// bits 8–14: box mask over the seven scopes; bit 15: saturate).
func randomSpec(rnd *sim.Rand) *scenario.Spec {
	platforms := []string{"am57", "beaglebone", "mobile"}
	scopes := []core.HW{core.HWCPU, core.HWGPU, core.HWDSP, core.HWWiFi, core.HWDisplay, core.HWGPS, core.HWDRAM}
	workloads := workload.Names()
	s := &scenario.Spec{
		Platform:   platforms[rnd.Intn(len(platforms))],
		Seed:       rnd.Uint64(),
		DurationMs: 1 + rnd.Intn(20),
	}
	for n := rnd.Intn(5); n > 0; n-- {
		a := uint16(rnd.Intn(1 << 16))
		app := scenario.AppSpec{Workload: workloads[int(a&0xff)%len(workloads)], Saturate: a&0x8000 != 0}
		for i, h := range scopes {
			if a>>(8+i)&1 != 0 {
				app.Box = append(app.Box, string(h))
			}
		}
		s.Apps = append(s.Apps, app)
	}
	return s
}

// TestViewsAgreeOnRandomScenarios runs checkBlameAgreesWithProfile on
// seeded random scenario documents (randomSpec) with profiling on and up
// to two meter dropouts on random rails, one of them between two samples.
// Where one app is the only owner of a usage recorder, it also checks the
// baseline accountant's view: the app's AppEnergy over the run equals the
// sum of EnergyBetween over the meter windows its spans occupy.
func TestViewsAgreeOnRandomScenarios(t *testing.T) {
	rnd := sim.NewRand(25)
	ran, solos, degraded := 0, 0, uint64(0)
	for seed := uint64(1); ran < 40; seed++ {
		doc, err := json.Marshal(randomSpec(rnd))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Parse(bytes.NewReader(doc))
		if err != nil {
			continue
		}
		horizon := sim.Time(spec.DurationMs) * sim.Time(sim.Millisecond)
		_, sys, err := scenario.RunWithSystem(spec, func(sys *psbox.System) {
			sys.EnableProfiling()
			rails := sys.Meter.Rails()
			period := sys.Meter.Period()
			for n := rnd.Intn(3); n > 0; n-- {
				rail := rails[rnd.Intn(len(rails))]
				from := sim.Time(rnd.Int63n(int64(horizon)))
				to := from.Add(sim.Duration(1+rnd.Intn(4)) * period)
				if n == 1 { // between two samples: degrades a window, drops none
					from = from/sim.Time(period)*sim.Time(period) + 1
					to = from.Add(period / 2)
				}
				sys.Meter.InjectDropout(rail, from, to)
			}
		})
		if err != nil {
			continue // a box scope the platform lacks
		}
		ran++
		degraded += checkBlameAgreesWithProfile(t, sys, seed).ProfileDegraded
		apps := sys.Kernel.Apps()
		if len(apps) != 1 {
			continue
		}
		for rail, rec := range sys.Recorders {
			spans := rec.Spans()
			solo := len(spans) > 0
			for _, sp := range spans {
				solo = solo && sp.Owner == apps[0].ID
			}
			if !solo {
				continue
			}
			solos++
			w := sys.Meter.Period()
			var want float64
			for lo := sim.Time(0); lo < sys.Now(); lo = lo.Add(w) {
				hi := min(lo.Add(w), sys.Now())
				for _, sp := range spans {
					if sp.Start < hi && sp.End > lo {
						want += sys.Meter.Energy(rail, lo, hi)
						break
					}
				}
			}
			got := sys.Accountant(rail, account.PolicyUsageShare).AppEnergy(apps[0].ID, 0, sys.Now())
			if math.Abs(got-want) > 1e-12*want {
				t.Errorf("seed %d: solo app %s on %s: AppEnergy %.15g J, Σ EnergyBetween over its windows %.15g J",
					seed, apps[0].Name, rail, got, want)
			}
		}
	}
	if solos == 0 || degraded == 0 {
		t.Fatalf("%d solo apps checked and %d degraded windows folded: want some of each", solos, degraded)
	}
	t.Logf("%d scenarios, %d solo apps checked, %d degraded windows folded", ran, solos, degraded)
}
