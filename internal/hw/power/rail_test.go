package power

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"psbox/internal/sim"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRailInitial(t *testing.T) {
	e := sim.NewEngine()
	r := NewRail(e, "cpu", 0.5)
	if r.Power() != 0.5 || r.Name() != "cpu" {
		t.Fatal("initial state wrong")
	}
	e.Run(sim.Time(1 * sim.Second))
	if got := r.EnergyBetween(0, sim.Time(1*sim.Second)); !almost(got, 0.5) {
		t.Fatalf("energy = %v", got)
	}
}

func TestRailSetAndIntegrate(t *testing.T) {
	e := sim.NewEngine()
	r := NewRail(e, "cpu", 1.0)
	e.At(sim.Time(100*sim.Millisecond), func(sim.Time) { r.Set(3.0) })
	e.At(sim.Time(300*sim.Millisecond), func(sim.Time) { r.Set(0.0) })
	e.Run(sim.Time(1 * sim.Second))
	// 0.1s@1W + 0.2s@3W + 0.7s@0W = 0.1 + 0.6 = 0.7 J
	if got := r.EnergyBetween(0, sim.Time(1*sim.Second)); !almost(got, 0.7) {
		t.Fatalf("energy = %v", got)
	}
	// Sub-intervals.
	if got := r.EnergyBetween(sim.Time(50*sim.Millisecond), sim.Time(150*sim.Millisecond)); !almost(got, 0.05+0.15) {
		t.Fatalf("partial energy = %v", got)
	}
	if got := r.EnergyBetween(sim.Time(400*sim.Millisecond), sim.Time(900*sim.Millisecond)); !almost(got, 0) {
		t.Fatalf("zero-power energy = %v", got)
	}
}

func TestRailPowerAt(t *testing.T) {
	e := sim.NewEngine()
	r := NewRail(e, "gpu", 0.2)
	e.At(10, func(sim.Time) { r.Set(1.5) })
	e.Run(20)
	if r.PowerAt(9) != 0.2 || r.PowerAt(10) != 1.5 || r.PowerAt(20) != 1.5 {
		t.Fatal("PowerAt wrong around breakpoint")
	}
}

func TestRailCoalescing(t *testing.T) {
	e := sim.NewEngine()
	r := NewRail(e, "x", 1)
	e.At(5, func(sim.Time) {
		r.Set(1) // redundant
		r.Set(2)
		r.Set(3) // same-instant overwrite
	})
	e.At(7, func(sim.Time) {
		r.Set(4)
		r.Set(3) // back to previous value at same instant: segment removed
	})
	e.Run(10)
	if r.Segments() != 2 {
		t.Fatalf("segments = %d, want 2", r.Segments())
	}
	if r.PowerAt(6) != 3 || r.PowerAt(8) != 3 {
		t.Fatal("coalesced values wrong")
	}
}

func TestRailAdjust(t *testing.T) {
	e := sim.NewEngine()
	r := NewRail(e, "disp", 0.1)
	e.At(1, func(sim.Time) { r.Adjust(0.4) })
	e.At(2, func(sim.Time) { r.Adjust(-0.2) })
	e.Run(3)
	if !almost(r.Power(), 0.3) {
		t.Fatalf("power = %v", r.Power())
	}
}

func TestRailSamples(t *testing.T) {
	e := sim.NewEngine()
	r := NewRail(e, "cpu", 1)
	e.At(sim.Time(25*sim.Microsecond), func(sim.Time) { r.Set(2) })
	e.Run(sim.Time(100 * sim.Microsecond))
	s := r.SamplesBetween(0, sim.Time(100*sim.Microsecond), 10*sim.Microsecond, nil)
	if len(s) != 10 {
		t.Fatalf("got %d samples", len(s))
	}
	if s[0].T != 0 || s[0].W != 1 {
		t.Fatalf("sample 0 = %+v", s[0])
	}
	if s[2].W != 1 || s[3].W != 2 {
		t.Fatalf("samples around breakpoint: %v %v", s[2], s[3])
	}
	// Non-aligned start rounds up to the next tick.
	s2 := r.SamplesBetween(sim.Time(15*sim.Microsecond), sim.Time(45*sim.Microsecond), 10*sim.Microsecond, nil)
	if len(s2) != 3 || s2[0].T != sim.Time(20*sim.Microsecond) {
		t.Fatalf("aligned samples wrong: %+v", s2)
	}
}

func TestRailTrimBefore(t *testing.T) {
	e := sim.NewEngine()
	r := NewRail(e, "cpu", 1)
	for i := 1; i <= 10; i++ {
		w := float64(i)
		e.At(sim.Time(i*10), func(sim.Time) { r.Set(w) })
	}
	e.Run(200)
	r.TrimBefore(55)
	if r.PowerAt(55) != 5 || r.PowerAt(60) != 6 || r.Power() != 10 {
		t.Fatal("TrimBefore lost data")
	}
	if got := r.EnergyBetween(55, 65); !almost(got, (5*5+6*5)/1e9) {
		t.Fatalf("post-trim energy = %v", got)
	}
}

func TestRailFuturePanics(t *testing.T) {
	e := sim.NewEngine()
	r := NewRail(e, "cpu", 1)
	e.Run(10)
	for _, f := range []func(){
		func() { r.PowerAt(11) },
		func() { _ = r.EnergyBetween(0, 11) },
		func() { r.Cursor(0, 11) },
		func() { c := r.Cursor(0, 5); c.EnergyBetween(0, 6) },
		func() { c := r.Cursor(0, 5); c.EnergyBetween(0, 4); c.Segment(3) },
		func() { c := r.Cursor(0, 5); c.PowerAt(5) },
		func() { c := r.Cursor(0, 5); c.PowerAt(3); c.PowerAt(2) },
		func() { r.SamplesBetween(0, 14, 4, nil) },
		func() { r.Set(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// randomRail draws a seeded rail over [0, horizon) and returns it with
// the instants it was set at. Some instants carry several sets that
// coalesce, some of them back to the power already drawn.
func randomRail(rnd *sim.Rand, horizon sim.Time) (*Rail, []sim.Time) {
	e := sim.NewEngine()
	r := NewRail(e, "r", float64(rnd.Intn(4))*0.5)
	var bounds []sim.Time
	for at := sim.Time(1 + rnd.Intn(40)); at < horizon; at = at.Add(sim.Duration(1 + rnd.Intn(40))) {
		bounds = append(bounds, at)
		levels := make([]Watts, 1+rnd.Intn(3))
		for i := range levels {
			levels[i] = float64(rnd.Intn(4)) * 0.5
		}
		e.At(at, func(sim.Time) {
			for _, w := range levels {
				r.Set(w)
			}
		})
	}
	e.Run(horizon)
	return r, bounds
}

// TestCursorMatchesEnergyBetween walks seeded rails forward with a cursor
// and checks every window bit for bit against EnergyBetween, and Segment's
// answer at its start against PowerAt: the power there, and the next
// instant at which PowerAt reads another. The windows mix
// the cases the forward walk must get right: windows starting on a
// segment boundary, gaps between windows, zero-length windows, and a last
// window ending at now. Some rails are trimmed after the cursor's start.
func TestCursorMatchesEnergyBetween(t *testing.T) {
	const horizon = sim.Time(1000)
	for seed := uint64(1); seed <= 200; seed++ {
		rnd := sim.NewRand(seed)
		r, bounds := randomRail(rnd, horizon)
		from := sim.Time(rnd.Intn(100))
		if rnd.Intn(4) == 0 {
			r.TrimBefore(sim.Time(rnd.Intn(200)))
		}
		c := r.Cursor(from, horizon)
		for lo := from; lo < horizon; {
			var hi sim.Time
			switch rnd.Intn(5) {
			case 0: // start on the next segment boundary
				for _, b := range bounds {
					if b >= lo {
						lo = b
						break
					}
				}
				hi = lo.Add(sim.Duration(1 + rnd.Intn(30)))
			case 1: // skip a gap first
				lo = lo.Add(sim.Duration(1 + rnd.Intn(80)))
				hi = lo.Add(sim.Duration(1 + rnd.Intn(30)))
			case 2: // zero length
				hi = lo
			default:
				hi = lo.Add(sim.Duration(1 + rnd.Intn(60)))
			}
			// Clipping ends the walk with a window [lo, now), lo < now.
			lo, hi = min(lo, horizon-1), min(hi, horizon)
			w, next := c.Segment(lo)
			change := sim.Time(math.MaxInt64)
			for at := lo + 1; at < horizon; at++ {
				if r.PowerAt(at) != r.PowerAt(lo) {
					change = at
					break
				}
			}
			if w != r.PowerAt(lo) || next != change {
				t.Fatalf("seed %d window [%d, %d): Segment = %v, %d; PowerAt %v, next change %d",
					seed, lo, hi, w, next, r.PowerAt(lo), change)
			}
			if got, want := c.EnergyBetween(lo, hi), r.EnergyBetween(lo, hi); got != want {
				t.Fatalf("seed %d window [%d, %d): cursor %v, EnergyBetween %v", seed, lo, hi, got, want)
			}
			lo = hi
		}
	}
}

// TestSamplesBetweenMatchesPowerAt checks SamplesBetween's forward read
// against one PowerAt search per sample on seeded rails: random periods,
// ranges starting on and off a tick, ranges ending at now, trimmed rails,
// and samples appended after ones already in dst.
func TestSamplesBetweenMatchesPowerAt(t *testing.T) {
	const horizon = sim.Time(1000)
	for seed := uint64(1); seed <= 200; seed++ {
		rnd := sim.NewRand(seed)
		r, _ := randomRail(rnd, horizon)
		if rnd.Intn(4) == 0 {
			r.TrimBefore(sim.Time(rnd.Intn(200)))
		}
		for range 5 {
			period := sim.Duration(1 + rnd.Intn(50))
			a := sim.Time(rnd.Intn(int(horizon)))
			b := horizon
			if rnd.Intn(2) == 0 {
				b = a.Add(sim.Duration(rnd.Intn(int(horizon - a + 1))))
			}
			prefix := []Sample{{T: -1, W: 9}}
			want := slices.Clone(prefix)
			for at := FirstTick(a, period); at < b; at = at.Add(period) {
				want = append(want, Sample{T: at, W: r.PowerAt(at)})
			}
			if got := r.SamplesBetween(a, b, period, prefix); !slices.Equal(got, want) {
				t.Fatalf("seed %d SamplesBetween(%d, %d, %d) = %v, want %v", seed, a, b, period, got, want)
			}
		}
	}
}

// Property: for any sequence of transitions, integrating the whole interval
// equals the sum of integrals over an arbitrary split point.
func TestQuickRailEnergyAdditivity(t *testing.T) {
	f := func(raw []uint16, splitRaw uint16) bool {
		e := sim.NewEngine()
		r := NewRail(e, "q", 0.5)
		horizon := sim.Time(1_000_000)
		for i, v := range raw {
			at := sim.Time(int64(v) % int64(horizon))
			w := float64(i%5) * 0.25
			e.At(at, func(sim.Time) { r.Set(w) })
		}
		e.Run(horizon)
		split := sim.Time(int64(splitRaw) % int64(horizon))
		whole := r.EnergyBetween(0, horizon)
		parts := r.EnergyBetween(0, split) + r.EnergyBetween(split, horizon)
		return math.Abs(whole-parts) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: sampled average power converges on exact energy for constant-rate
// sampling of piecewise-constant signals when transitions align to ticks.
func TestQuickRailSamplesMatchEnergyOnAligned(t *testing.T) {
	f := func(raw []uint8) bool {
		e := sim.NewEngine()
		r := NewRail(e, "q", 1)
		period := 10 * sim.Microsecond
		horizon := sim.Time(1000 * int64(period))
		for i, v := range raw {
			tick := int64(v) % 1000
			at := sim.Time(tick * int64(period))
			w := float64((i % 4) + 1)
			e.At(at, func(sim.Time) { r.Set(w) })
		}
		e.Run(horizon)
		samples := r.SamplesBetween(0, horizon, period, nil)
		var sum float64
		for _, s := range samples {
			sum += s.W * period.Seconds()
		}
		return math.Abs(sum-r.EnergyBetween(0, horizon)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOnChangeFiresOnEffectiveChanges(t *testing.T) {
	e := sim.NewEngine()
	r := NewRail(e, "x", 1)
	var seen []float64
	r.OnChange(func(w Watts) { seen = append(seen, w) })
	e.At(1, func(sim.Time) {
		r.Set(1) // coalesced: no event
		r.Set(2)
	})
	e.At(2, func(sim.Time) { r.Set(3) })
	e.Run(5)
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 3 {
		t.Fatalf("events = %v", seen)
	}
}

func TestSumRailTracksInputs(t *testing.T) {
	e := sim.NewEngine()
	a := NewRail(e, "a", 1.0)
	b := NewRail(e, "b", 0.5)
	bat := SumRail(e, "battery", a, b)
	if bat.Power() != 1.5 {
		t.Fatalf("initial sum = %v", bat.Power())
	}
	e.At(sim.Time(10*sim.Millisecond), func(sim.Time) { a.Set(2.0) })
	e.At(sim.Time(20*sim.Millisecond), func(sim.Time) { b.Set(0.0) })
	e.Run(sim.Time(30 * sim.Millisecond))
	if bat.Power() != 2.0 {
		t.Fatalf("final sum = %v", bat.Power())
	}
	// Exact integral: 1.5×10ms + 2.5×10ms + 2.0×10ms.
	want := (1.5 + 2.5 + 2.0) * 0.010
	if got := bat.EnergyBetween(0, e.Now()); !almost(got, want) {
		t.Fatalf("sum energy = %v want %v", got, want)
	}
	// And it equals the inputs' combined energy at all times.
	comb := a.EnergyBetween(0, e.Now()) + b.EnergyBetween(0, e.Now())
	if !almost(bat.EnergyBetween(0, e.Now()), comb) {
		t.Fatal("sum rail diverged from inputs")
	}
}
