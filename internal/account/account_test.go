package account

import (
	"math"
	"testing"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

const ms = sim.Millisecond

func setup(t *testing.T, initial power.Watts) (*sim.Engine, *power.Rail, *Recorder) {
	e := sim.NewEngine()
	r := power.NewRail(e, "rail", initial)
	return e, r, &Recorder{}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestExclusiveUsageFullyAttributed(t *testing.T) {
	e, rail, rec := setup(t, 2.0)
	e.Run(sim.Time(100 * ms))
	rec.Record(1, 0, sim.Time(40*ms))
	rec.Record(2, sim.Time(40*ms), sim.Time(100*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	shares := acc.Shares(0, sim.Time(100*ms))
	if !almost(shares[1], 2.0*0.040) || !almost(shares[2], 2.0*0.060) {
		t.Fatalf("shares = %v", shares)
	}
}

func TestOverlappingUsageSplitsByOccupancy(t *testing.T) {
	e, rail, rec := setup(t, 3.0)
	e.Run(sim.Time(100 * ms))
	// App 1 occupies one core the whole time; app 2 a second core the
	// whole time: even split of the entangled rail.
	rec.Record(1, 0, sim.Time(100*ms))
	rec.Record(2, 0, sim.Time(100*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	shares := acc.Shares(0, sim.Time(100*ms))
	if !almost(shares[1], 0.15) || !almost(shares[2], 0.15) {
		t.Fatalf("shares = %v", shares)
	}
}

func TestProportionalSplit(t *testing.T) {
	e, rail, rec := setup(t, 1.0)
	e.Run(sim.Time(10 * ms))
	// Within every window, app 1 uses 2 "cores" and app 2 uses 1.
	rec.Record(1, 0, sim.Time(10*ms))
	rec.Record(1, 0, sim.Time(10*ms))
	rec.Record(2, 0, sim.Time(10*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	shares := acc.Shares(0, sim.Time(10*ms))
	if !almost(shares[1], 2.0/3*0.010) || !almost(shares[2], 1.0/3*0.010) {
		t.Fatalf("shares = %v", shares)
	}
}

func TestIdleWindowsUnattributedByDefault(t *testing.T) {
	e, rail, rec := setup(t, 1.0)
	e.Run(sim.Time(100 * ms))
	rec.Record(1, 0, sim.Time(10*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	shares := acc.Shares(0, sim.Time(100*ms))
	if !almost(shares[1], 0.010) {
		t.Fatalf("shares = %v", shares)
	}
	var total float64
	for _, s := range shares {
		total += s
	}
	if !almost(total, 0.010) {
		t.Fatalf("idle energy leaked into shares: %v", shares)
	}
}

func TestTailPolicyChargesLastUser(t *testing.T) {
	e, rail, rec := setup(t, 1.0)
	e.Run(sim.Time(100 * ms))
	rec.Record(1, 0, sim.Time(10*ms))
	rec.Record(2, sim.Time(20*ms), sim.Time(30*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShareTail}
	shares := acc.Shares(0, sim.Time(100*ms))
	// App 1: its 10ms + the 10ms idle gap it "caused". App 2: its 10ms +
	// the 70ms trailing idle.
	if !almost(shares[1], 0.020) || !almost(shares[2], 0.080) {
		t.Fatalf("shares = %v", shares)
	}
}

func TestEvenSplitPolicy(t *testing.T) {
	e, rail, rec := setup(t, 2.0)
	e.Run(sim.Time(10 * ms))
	rec.Record(1, 0, sim.Time(10*ms))
	rec.Record(1, 0, sim.Time(10*ms)) // heavy user
	rec.Record(2, 0, sim.Time(10*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyEvenSplit}
	shares := acc.Shares(0, sim.Time(10*ms))
	if !almost(shares[1], 0.010) || !almost(shares[2], 0.010) {
		t.Fatalf("even split wrong: %v", shares)
	}
}

// The paper's core claim about the baseline: the attributed share of one
// app changes with co-runner behaviour even though the app itself did not
// change — entanglement survives any division heuristic.
func TestEntanglementSurvivesDivision(t *testing.T) {
	run := func(coRunner bool) power.Joules {
		e, rail, rec := setup(t, 1.0)
		// App 1 busy the whole 100ms: alone the rail draws 2 W; with a
		// co-runner on the second core it draws 3 W (not 2×2 W — shared
		// base).
		if coRunner {
			rail.Set(3.0)
		} else {
			rail.Set(2.0)
		}
		e.Run(sim.Time(100 * ms))
		rec.Record(1, 0, sim.Time(100*ms))
		if coRunner {
			rec.Record(2, 0, sim.Time(100*ms))
		}
		acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
		return acc.AppEnergy(1, 0, sim.Time(100*ms))
	}
	alone, entangled := run(false), run(true)
	diff := math.Abs(entangled-alone) / alone
	if diff < 0.2 {
		t.Fatalf("expected a large attribution shift, got %.1f%%", diff*100)
	}
}

func TestSeriesBuckets(t *testing.T) {
	e, rail, rec := setup(t, 1.0)
	e.Run(sim.Time(20 * ms))
	rec.Record(1, 0, sim.Time(10*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	s := acc.Series(1, 0, sim.Time(20*ms), 5*ms)
	if len(s) != 4 {
		t.Fatalf("buckets = %d", len(s))
	}
	if !almost(s[0].W, 1.0) || !almost(s[1].W, 1.0) || !almost(s[2].W, 0) || !almost(s[3].W, 0) {
		t.Fatalf("series = %v", s)
	}
}

func TestRecorderDropsEmptySpans(t *testing.T) {
	rec := &Recorder{}
	rec.Record(1, 10, 10)
	rec.Record(1, 10, 5)
	if rec.Len() != 0 {
		t.Fatal("empty spans should be dropped")
	}
	rec.Record(1, 5, 10)
	if rec.Len() != 1 {
		t.Fatal("valid span dropped")
	}
}

func TestWindowClippingAtRangeEnd(t *testing.T) {
	// A range that is not a multiple of the window must not over-count.
	e, rail, rec := setup(t, 1.0)
	e.Run(sim.Time(105 * sim.Microsecond))
	rec.Record(1, 0, sim.Time(105*sim.Microsecond))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	if got := acc.AppEnergy(1, 0, sim.Time(105*sim.Microsecond)); !almost(got, 105e-6) {
		t.Fatalf("energy = %v", got)
	}
}

// AppEnergy sorts the span edges once per call and answers every window
// from the sweep, so its allocations must not grow with the number of
// windows queried: 100 windows and 10 000 windows cost the same.
func TestAppEnergyAllocsIndependentOfWindows(t *testing.T) {
	e, rail, rec := setup(t, 1.0)
	e.Run(sim.Time(100 * ms))
	for i := 0; i < 50; i++ {
		start := sim.Time(i) * sim.Time(2*ms)
		rec.Record(1+i%3, start, start.Add(3*ms))
	}
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	allocs := func(to sim.Time) float64 {
		return testing.AllocsPerRun(10, func() { acc.AppEnergy(1, 0, to) })
	}
	if few, many := allocs(sim.Time(1*ms)), allocs(sim.Time(100*ms)); many != few {
		t.Fatalf("AppEnergy allocs: %v over 100 windows, %v over 10000", few, many)
	}
}
