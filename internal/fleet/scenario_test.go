package fleet

import (
	"math"
	"testing"

	"psbox/internal/obs/profile"
	"psbox/internal/sim"
)

// TestBlameAgreesWithProfile checks a shard report's two per-principal
// energy views against each other and against one reference, the DAQ
// samples themselves. Blame and the profile split the same sample windows
// by the same occupancy, so each principal's joules must agree (the
// profile's idle floor is part of blame's owner-0 "kernel" share), both
// must fold every component rail's samples, and their total must be
// Σ W × period over those samples.
func TestBlameAgreesWithProfile(t *testing.T) {
	const horizon = 200 * sim.Millisecond
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
	}
	for seed := uint64(1); seed <= 8; seed++ {
		sys := DefaultScenario(0, seed, horizon)
		sys.Run(horizon)
		rep := Summarize(sys, 0, sys.Now())

		period := sys.Meter.Period().Seconds()
		var sampleJ float64
		var samples uint64
		for _, rail := range sys.Meter.Rails() {
			if rail == "battery" {
				continue
			}
			for _, s := range sys.Meter.Samples(rail, 0, sys.Now()) {
				sampleJ += float64(s.W) * period
				samples++
			}
		}

		profileJ := make(map[string]float64)
		for _, e := range rep.Profile {
			app := e.App
			if app == profile.IdleApp {
				app = "kernel"
			}
			profileJ[app] += e.J
		}
		var blameJ float64
		for _, bl := range rep.Blame {
			blameJ += bl.J
			pj, ok := profileJ[bl.App]
			if !ok {
				t.Errorf("seed %d: blame names %q, the profile does not", seed, bl.App)
				continue
			}
			if !near(bl.J, pj) {
				t.Errorf("seed %d: %s blame %.15g J, profile %.15g J", seed, bl.App, bl.J, pj)
			}
			delete(profileJ, bl.App)
		}
		for app := range profileJ {
			t.Errorf("seed %d: profile names %q, blame does not", seed, app)
		}
		if !near(blameJ, sampleJ) {
			t.Errorf("seed %d: total blame %.15g J, Σ W × period over the samples %.15g J", seed, blameJ, sampleJ)
		}
		if rep.ProfileWindows != samples {
			t.Errorf("seed %d: profile folded %d windows, the rails hold %d samples", seed, rep.ProfileWindows, samples)
		}
		if rep.ProfileDegraded != uint64(rep.Degraded) {
			t.Errorf("seed %d: profile degraded windows %d, blame degraded %d", seed, rep.ProfileDegraded, rep.Degraded)
		}
	}
}
