package obs

import (
	"maps"
	"slices"
	"sort"
	"testing"

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

// TestSweepNextBusyAgreesWithWindow walks the seeded cases the way the
// accountant skips idle stretches: from each window start it asks for the
// next busy instant, checks against the reference that every window
// ending at or before it has no uses, then jumps to the window containing
// it, which must have uses, and checks that window's answer.
func TestSweepNextBusyAgreesWithWindow(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rnd := sim.NewRand(seed)
		ivs := randomIntervals(rnd, rnd.Intn(40))
		period := sim.Duration(5 + rnd.Intn(60))
		horizon := sim.Time(900 + rnd.Intn(400))
		sw := NewSweep(ivs)
		for lo := sim.Time(rnd.Intn(100)); lo < horizon; {
			next, ok := sw.NextBusy(lo)
			if ok && next < lo {
				t.Fatalf("seed %d: next busy instant %d before %d", seed, next, lo)
			}
			for ; lo < horizon && (!ok || min(lo.Add(period), horizon) <= next); lo = lo.Add(period) {
				hi := min(lo.Add(period), horizon)
				if occ, _ := clipReference(ivs, lo, hi); len(occ) != 0 {
					t.Fatalf("seed %d: window [%d, %d) before next busy instant %d (ok=%v) has uses %v",
						seed, lo, hi, next, ok, occ)
				}
			}
			if lo >= horizon {
				break
			}
			hi := min(lo.Add(period), horizon)
			uses, _ := sw.Window(lo, hi)
			wantOcc, _ := clipReference(ivs, lo, hi)
			if len(uses) == 0 || len(uses) != len(wantOcc) {
				t.Fatalf("seed %d window [%d, %d) holding next busy instant %d: uses %v, want %v", seed, lo, hi, next, uses, wantOcc)
			}
			for _, u := range uses {
				if wantOcc[u.Owner] != u.Occ {
					t.Fatalf("seed %d window [%d, %d): uses %v, want %v", seed, lo, hi, uses, wantOcc)
				}
			}
			lo = hi
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

// TestSweepRepeatAgreesWithWindow checks Repeat on the seeded cases above
// against a second sweep that answers every window with Window: whenever
// Repeat reports that a window repeats the last one, the slice Window
// returned for the last window must hold this window's answer. The
// windows skip runs as before, and before some windows the accountant's
// NextBusy moves the line first, applying any edge at the window's start.
// Half the cases place every edge on a window start, the other half
// mostly off. Repeat must fire on some windows, or the test proves
// nothing.
func TestSweepRepeatAgreesWithWindow(t *testing.T) {
	repeats, windows := 0, 0
	for seed := uint64(1); seed <= 200; seed++ {
		rnd := sim.NewRand(seed)
		ivs := randomIntervals(rnd, rnd.Intn(40))
		period := sim.Duration(5 + rnd.Intn(60))
		horizon := sim.Time(900 + rnd.Intn(400))
		origin := sim.Time(rnd.Intn(100))
		if seed%2 == 0 {
			for i := range ivs {
				ivs[i].Start = origin + (ivs[i].Start-origin)/sim.Time(period)*sim.Time(period)
				ivs[i].End = origin + (ivs[i].End-origin)/sim.Time(period)*sim.Time(period)
			}
		}
		sw, ref := NewSweep(ivs), NewSweep(ivs)
		var last []Use
		var lastCovered sim.Duration
		for lo := origin; lo < horizon; lo = lo.Add(period) {
			if rnd.Intn(8) == 0 {
				lo = lo.Add(sim.Duration(rnd.Intn(3)) * period)
				continue
			}
			if rnd.Intn(3) == 0 {
				sw.NextBusy(lo)
			}
			hi := min(lo.Add(period), horizon)
			wantUses, wantCovered := ref.Window(lo, hi)
			if sw.Repeat(lo, hi) {
				repeats++
			} else {
				last, lastCovered = sw.Window(lo, hi)
			}
			windows++
			if !slices.Equal(last, wantUses) || lastCovered != wantCovered {
				t.Fatalf("seed %d window [%d, %d): answer %v covering %d, Window says %v covering %d",
					seed, lo, hi, last, lastCovered, wantUses, wantCovered)
			}
		}
	}
	if repeats < windows/10 {
		t.Fatalf("Repeat fired on %d of %d windows", repeats, windows)
	}
	t.Logf("Repeat fired on %d of %d windows", repeats, windows)
}
