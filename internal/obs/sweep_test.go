package obs

import (
	"maps"
	"slices"
	"sort"
	"testing"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

// clipReference is the per-window clip-and-union arithmetic the sweep
// replaced: clip every interval to [lo, hi), sum each owner's clipped
// length, and merge the clipped pieces for coverage. It rescans every
// interval for every window, which is what makes it a trustworthy
// reference and a slow kernel.
func clipReference(ivs []Interval, lo, hi sim.Time) (map[int]sim.Duration, sim.Duration) {
	occ := make(map[int]sim.Duration)
	var clipped []Interval
	for _, iv := range ivs {
		a, b := max(iv.Start, lo), min(iv.End, hi)
		if b <= a {
			continue
		}
		occ[iv.Owner] += b.Sub(a)
		clipped = append(clipped, Interval{Start: a, End: b, Owner: iv.Owner})
	}
	if len(clipped) == 0 {
		return occ, 0
	}
	sort.Slice(clipped, func(i, j int) bool {
		if clipped[i].Start != clipped[j].Start {
			return clipped[i].Start < clipped[j].Start
		}
		return clipped[i].End < clipped[j].End
	})
	var covered sim.Duration
	curA, curB := clipped[0].Start, clipped[0].End
	for _, iv := range clipped[1:] {
		if iv.Start > curB {
			covered += curB.Sub(curA)
			curA, curB = iv.Start, iv.End
			continue
		}
		if iv.End > curB {
			curB = iv.End
		}
	}
	return occ, covered + curB.Sub(curA)
}

// randomIntervals draws a seeded mix the kernel must get exactly right:
// few owners (so one owner's intervals overlap each other), zero-width
// intervals, short ones inside a window and long ones spanning many.
func randomIntervals(rnd *sim.Rand, n int) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		start := sim.Time(rnd.Intn(1000))
		var length sim.Duration
		switch rnd.Intn(4) {
		case 0: // zero width
		case 1:
			length = sim.Duration(1 + rnd.Intn(30))
		default:
			length = sim.Duration(1 + rnd.Intn(500))
		}
		ivs[i] = Interval{Start: start, End: start.Add(length), Owner: 7 * rnd.Intn(4)}
	}
	return ivs
}

// TestSweepMatchesClipReference checks occupancy and coverage against
// the reference on every window of seeded cases: windows of a random
// period from a random origin, with random runs of windows skipped (the
// way Meter.Samples leaves a hole around a dropout) and a last window cut
// short at a horizon that is not a period boundary.
func TestSweepMatchesClipReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rnd := sim.NewRand(seed)
		ivs := randomIntervals(rnd, rnd.Intn(40))
		period := sim.Duration(5 + rnd.Intn(60))
		horizon := sim.Time(900 + rnd.Intn(400))
		sw := NewSweep(ivs)
		windows := 0
		for lo := sim.Time(rnd.Intn(100)); lo < horizon; lo = lo.Add(period) {
			if rnd.Intn(5) == 0 {
				lo = lo.Add(sim.Duration(rnd.Intn(3)) * period)
				continue
			}
			hi := min(lo.Add(period), horizon)
			uses, covered := sw.Window(lo, hi)
			wantOcc, wantCovered := clipReference(ivs, lo, hi)
			if covered != wantCovered {
				t.Fatalf("seed %d window [%d, %d): coverage %d, want %d", seed, lo, hi, covered, wantCovered)
			}
			got := make(map[int]sim.Duration)
			for i, u := range uses {
				if i > 0 && uses[i-1].Owner >= u.Owner {
					t.Fatalf("seed %d window [%d, %d): owners not ascending: %v", seed, lo, hi, uses)
				}
				got[u.Owner] = u.Occ
			}
			if !maps.Equal(got, wantOcc) {
				t.Fatalf("seed %d window [%d, %d): occupancy %v, want %v", seed, lo, hi, got, wantOcc)
			}
			windows++
		}
		if windows == 0 {
			t.Fatalf("seed %d: no window checked", seed)
		}
	}
}

func TestSweepPanicsOnOutOfOrderWindow(t *testing.T) {
	sw := NewSweep([]Interval{{Start: 0, End: 50, Owner: 1}})
	sw.Window(10, 20)
	sw.Window(20, 30) // contiguous is fine
	sw.Window(40, 50) // so is a gap
	defer func() {
		if recover() == nil {
			t.Fatal("want a panic for a window starting before the previous one ended")
		}
	}()
	sw.Window(45, 55)
}

// runsRail draws a seeded rail over [0, horizon) that holds steady for
// stretches of one to a dozen windows of the grid from first, and changes
// on a window start, next to one or strictly inside a window; some sets
// coalesce back to the power already drawn.
func runsRail(rnd *sim.Rand, first sim.Time, period sim.Duration, horizon sim.Time) *power.Rail {
	e := sim.NewEngine()
	r := power.NewRail(e, "r", float64(rnd.Intn(4))*0.5)
	for at := first; ; {
		at = at.Add(sim.Duration(1+rnd.Intn(12)) * period)
		switch rnd.Intn(3) {
		case 0:
			at = at.Add(1)
		case 1:
			at = at.Add(sim.Duration(rnd.Intn(int(period))))
		}
		if at >= horizon {
			break
		}
		w := float64(rnd.Intn(4)) * 0.5
		e.At(at, func(sim.Time) { r.Set(w) })
	}
	e.Run(horizon)
	return r
}

// runsGaps draws sorted gaps that neither overlap nor touch, as
// Meter.Dropouts returns them, with bounds on, next to and strictly
// inside windows of the grid from first: some hold a window start and
// drop it, some lie between two and only degrade a window.
func runsGaps(rnd *sim.Rand, first sim.Time, period sim.Duration, horizon sim.Time) []Gap {
	var gaps []Gap
	for at := first; ; {
		from := at.Add(1 + sim.Duration(rnd.Intn(16))*period)
		switch rnd.Intn(3) {
		case 0:
			from = power.FirstTick(from-first, period).Add(sim.Duration(first))
		case 1:
			from = from.Add(sim.Duration(rnd.Intn(int(period))))
		}
		g := Gap{From: from, To: from.Add(1 + sim.Duration(rnd.Intn(3*int(period))))}
		if g.To >= horizon {
			return gaps
		}
		gaps = append(gaps, g)
		at = g.To
	}
}

// TestRunsAgreeWithWindow walks seeded cases with Runs and checks every
// window of every run against what the run stands for: a second sweep's
// Window, the rail's PowerAt at the window's start and its energy, equal
// to the first window's, and a scan of the gaps. The runs must tile the
// grid from first to an end off the grid, whose last window is clipped.
// On a random half of the runs the test reads the first window with the
// cursor's EnergyBetween, as the accountant does. Half the cases place
// every interval edge on a window start. Some run must hold more than one
// window, or the test proves nothing.
func TestRunsAgreeWithWindow(t *testing.T) {
	long, clipped := 0, 0
	for seed := uint64(1); seed <= 200; seed++ {
		rnd := sim.NewRand(seed)
		ivs := randomIntervals(rnd, rnd.Intn(40))
		period := sim.Duration(5 + rnd.Intn(60))
		horizon := sim.Time(900 + rnd.Intn(400))
		first := sim.Time(rnd.Intn(100))
		if seed%2 == 0 {
			for i := range ivs {
				ivs[i].Start = first + (ivs[i].Start-first)/sim.Time(period)*sim.Time(period)
				ivs[i].End = first + (ivs[i].End-first)/sim.Time(period)*sim.Time(period)
			}
		}
		rail := runsRail(rnd, first, period, horizon)
		gaps := runsGaps(rnd, first, period, horizon)
		ref := NewSweep(ivs)
		cursor := rail.Cursor(first, horizon)
		gc := NewGapCursor(gaps)
		lo := first
		NewSweep(ivs).Runs(&cursor, &gc, first, horizon, period, func(r Run) {
			if r.Lo != lo || r.N < 1 {
				t.Fatalf("seed %d: run of %d windows from %d, want one from %d", seed, r.N, r.Lo, lo)
			}
			energy := rail.EnergyBetween(r.Lo, r.Hi)
			if rnd.Intn(2) == 0 {
				if e := cursor.EnergyBetween(r.Lo, r.Hi); e != energy {
					t.Fatalf("seed %d window [%d, %d): cursor energy %v, EnergyBetween %v", seed, r.Lo, r.Hi, e, energy)
				}
			}
			for range r.N {
				hi := min(lo.Add(period), horizon)
				if hi.Sub(lo) != r.Hi.Sub(r.Lo) {
					t.Fatalf("seed %d: window [%d, %d) in a run from [%d, %d)", seed, lo, hi, r.Lo, r.Hi)
				}
				uses, covered := ref.Window(lo, hi)
				if !slices.Equal(uses, r.Uses) || covered != r.Covered {
					t.Fatalf("seed %d window [%d, %d) in a run from %d: %v covering %d, Window says %v covering %d",
						seed, lo, hi, r.Lo, r.Uses, r.Covered, uses, covered)
				}
				if w, e := rail.PowerAt(lo), rail.EnergyBetween(lo, hi); w != r.W || e != energy {
					t.Fatalf("seed %d window [%d, %d) in a run from %d: %v W and %v J, the rail says %v W and %v J",
						seed, lo, hi, r.Lo, r.W, energy, w, e)
				}
				dropped := slices.ContainsFunc(gaps, func(g Gap) bool { return g.From <= lo && lo < g.To })
				degraded := slices.ContainsFunc(gaps, func(g Gap) bool { return g.From < hi && lo < g.To })
				if dropped != r.Dropped || degraded != r.Degraded {
					t.Fatalf("seed %d window [%d, %d) in a run from %d: dropped %v degraded %v, the gaps say %v and %v",
						seed, lo, hi, r.Lo, r.Dropped, r.Degraded, dropped, degraded)
				}
				if hi.Sub(lo) < period {
					clipped++
				}
				lo = hi
			}
			if r.N > 1 {
				long++
			}
		})
		if lo != horizon {
			t.Fatalf("seed %d: runs end at %d, want %d", seed, lo, horizon)
		}
	}
	if long == 0 || clipped == 0 {
		t.Fatalf("%d runs of more than one window, %d clipped windows", long, clipped)
	}
	t.Logf("%d runs of more than one window, %d clipped windows", long, clipped)
}

// steadyRail is a rail that draws one power over [0, horizon), so that
// only interval edges and the end of the grid end a run of windows.
func steadyRail(horizon sim.Time) *power.Rail {
	e := sim.NewEngine()
	r := power.NewRail(e, "r", 1.5)
	e.Run(horizon)
	return r
}

// TestSweepNextBusyAgreesWithWindow walks the seeded cases the way the
// accountant skips idle stretches, now one run each: on a steady rail
// with no gaps, every window of a run without uses has none in the
// reference, and the window after such a run holds the next busy
// instant, so it has uses in the reference, unless it is the last
// window, clipped by the end of the grid. Some idle run must hold more
// than one window, or the test proves nothing.
func TestSweepNextBusyAgreesWithWindow(t *testing.T) {
	skips := 0
	for seed := uint64(1); seed <= 200; seed++ {
		rnd := sim.NewRand(seed)
		ivs := randomIntervals(rnd, rnd.Intn(40))
		period := sim.Duration(5 + rnd.Intn(60))
		horizon := sim.Time(900 + rnd.Intn(400))
		first := sim.Time(rnd.Intn(100))
		cursor := steadyRail(horizon).Cursor(first, horizon)
		var gaps GapCursor
		idleEnd := sim.Time(-1) // where the last idle run ended
		NewSweep(ivs).Runs(&cursor, &gaps, first, horizon, period, func(r Run) {
			if r.Lo == idleEnd && r.Hi.Sub(r.Lo) == period {
				if occ, _ := clipReference(ivs, r.Lo, r.Hi); len(occ) == 0 {
					t.Fatalf("seed %d: window [%d, %d) after an idle run has no uses", seed, r.Lo, r.Hi)
				}
			}
			if len(r.Uses) != 0 {
				return
			}
			for k := range r.N {
				lo := r.Lo.Add(sim.Duration(k) * period)
				hi := min(lo.Add(period), horizon)
				if occ, _ := clipReference(ivs, lo, hi); len(occ) != 0 {
					t.Fatalf("seed %d: window [%d, %d) of an idle run from %d has uses %v", seed, lo, hi, r.Lo, occ)
				}
			}
			if r.N > 1 {
				skips++
			}
			idleEnd = r.Lo.Add(sim.Duration(r.N) * period)
		})
	}
	if skips == 0 {
		t.Fatal("no idle run held more than one window")
	}
}

// TestSweepRepeatAgreesWithWindow checks the sweep's half of the repeat
// rule Runs states, on a steady rail with no gaps: every window of a run
// gets the run's answer from a second sweep's Window, and a run is as
// long as the rule lets it be, so one window more would reach an
// interval edge after its start or run past the end of the grid. Half
// the cases place every edge on a window start, the other half mostly
// off. At least a tenth of the windows must repeat the one before them,
// or the test proves nothing.
func TestSweepRepeatAgreesWithWindow(t *testing.T) {
	repeats, windows := 0, 0
	for seed := uint64(1); seed <= 200; seed++ {
		rnd := sim.NewRand(seed)
		ivs := randomIntervals(rnd, rnd.Intn(40))
		period := sim.Duration(5 + rnd.Intn(60))
		horizon := sim.Time(900 + rnd.Intn(400))
		first := sim.Time(rnd.Intn(100))
		if seed%2 == 0 {
			for i := range ivs {
				ivs[i].Start = first + (ivs[i].Start-first)/sim.Time(period)*sim.Time(period)
				ivs[i].End = first + (ivs[i].End-first)/sim.Time(period)*sim.Time(period)
			}
		}
		ref := NewSweep(ivs)
		cursor := steadyRail(horizon).Cursor(first, horizon)
		var gaps GapCursor
		NewSweep(ivs).Runs(&cursor, &gaps, first, horizon, period, func(r Run) {
			for k := range r.N {
				lo := r.Lo.Add(sim.Duration(k) * period)
				hi := min(lo.Add(period), horizon)
				uses, covered := ref.Window(lo, hi)
				if !slices.Equal(uses, r.Uses) || covered != r.Covered {
					t.Fatalf("seed %d window [%d, %d) in a run from %d: %v covering %d, Window says %v covering %d",
						seed, lo, hi, r.Lo, r.Uses, r.Covered, uses, covered)
				}
			}
			beyond := r.Lo.Add(sim.Duration(r.N+1) * period)
			edge := slices.ContainsFunc(ivs, func(iv Interval) bool {
				return iv.End > iv.Start && (r.Lo < iv.Start && iv.Start < beyond || r.Lo < iv.End && iv.End < beyond)
			})
			if !edge && beyond <= horizon {
				t.Fatalf("seed %d: run of %d windows from %d stops before the edge or end after %d", seed, r.N, r.Lo, beyond)
			}
			windows += r.N
			repeats += r.N - 1
		})
	}
	if repeats < windows/10 {
		t.Fatalf("%d of %d windows repeat the one before them", repeats, windows)
	}
	t.Logf("%d of %d windows repeat the one before them", repeats, windows)
}
