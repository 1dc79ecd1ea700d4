package fleet

import (
	"math"
	"testing"

	"psbox/internal/sim"
)

// TestBlameAgreesWithProfile checks a shard report's per-principal blame,
// which Summarize sums from the energy profile, against two independent
// references. The first is the per-sample blame timeline (System.Blame):
// it splits the same sample windows by the same occupancy, so each
// principal's joules must agree (the profile's idle floor is part of the
// timeline's owner-0 "kernel" share), and both must mark the same windows
// degraded. The second is the DAQ samples themselves: the profile must
// fold every component rail's samples, and blame must total Σ W × period
// over them.
func TestBlameAgreesWithProfile(t *testing.T) {
	const horizon = 200 * sim.Millisecond
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
	}
	for seed := uint64(1); seed <= 8; seed++ {
		sys := DefaultScenario(0, seed, horizon)
		sys.Run(horizon)
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
	}
}
