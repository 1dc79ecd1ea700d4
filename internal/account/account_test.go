package account

import (
	"cmp"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"

	"psbox/internal/hw/power"
	"psbox/internal/obs"
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
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond}
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
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond}
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
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond}
	shares := acc.Shares(0, sim.Time(10*ms))
	if !almost(shares[1], 2.0/3*0.010) || !almost(shares[2], 1.0/3*0.010) {
		t.Fatalf("shares = %v", shares)
	}
}

func TestIdleWindowsUnattributedByDefault(t *testing.T) {
	e, rail, rec := setup(t, 1.0)
	e.Run(sim.Time(100 * ms))
	rec.Record(1, 0, sim.Time(10*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond}
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
		acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond}
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
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond}
	s := acc.Series(1, 0, sim.Time(20*ms), 5*ms)
	if len(s) != 4 {
		t.Fatalf("buckets = %d", len(s))
	}
	if !almost(s[0].W, 1.0) || !almost(s[1].W, 1.0) || !almost(s[2].W, 0) || !almost(s[3].W, 0) {
		t.Fatalf("series = %v", s)
	}
	// With neither a step nor a Window, buckets are the default 10 µs
	// window.
	acc.Window = 0
	s = acc.Series(1, 0, sim.Time(20*ms), 0)
	if len(s) != 2000 || !almost(s[0].W, 1.0) || !almost(s[999].W, 1.0) || !almost(s[1000].W, 0) {
		t.Fatalf("default-window series: %d buckets, first %v", len(s), s[:2])
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
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond}
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
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond}
	allocs := func(to sim.Time) float64 {
		return testing.AllocsPerRun(10, func() { acc.AppEnergy(1, 0, to) })
	}
	if few, many := allocs(sim.Time(1*ms)), allocs(sim.Time(100*ms)); many != few {
		t.Fatalf("AppEnergy allocs: %v over 100 windows, %v over 10000", few, many)
	}
}

func TestRecordPanicsOnSpanEndingEarlier(t *testing.T) {
	rec := &Recorder{}
	rec.Record(1, 0, 20)
	rec.Record(2, 5, 20) // ending together is fine
	defer func() {
		if recover() == nil {
			t.Fatal("want a panic for a span ending before the previous one")
		}
	}()
	rec.Record(1, 10, 15)
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// A budget-monitor tick asks for the shares of the last 25 ms. The spans
// that ended before it must cost nothing: the same tick allocates the
// same bytes after 1 000 and after 100 000 earlier spans.
func TestSharesBytesIndependentOfHistory(t *testing.T) {
	bytes := func(history int) uint64 {
		e, rail, rec := setup(t, 1.0)
		const every = 20 * sim.Microsecond
		for i := 0; i < history; i++ {
			start := sim.Time(i) * sim.Time(every)
			rec.Record(1+i%3, start, start.Add(every/2))
		}
		from := sim.Time(history) * sim.Time(every)
		to := from.Add(25 * ms)
		for i := 0; i < 100; i++ {
			start := from.Add(sim.Duration(i) * 250 * sim.Microsecond)
			rec.Record(1+i%3, start, start.Add(200*sim.Microsecond))
		}
		e.Run(to)
		acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond}
		return bytesPerRun(20, func() { acc.Shares(from, to) })
	}
	if few, many := bytes(1000), bytes(100000); many != few {
		t.Fatalf("Shares over the last 25 ms: %d B after 1 000 spans, %d B after 100 000", few, many)
	}
}

// wholeHistoryEach is the loop each replaced, kept as its reference: it
// sweeps every span recorded since t=0, visits every window of [from,
// to), and integrates each window's energy with its own EnergyBetween
// search.
func wholeHistoryEach(a *Accountant, from, to sim.Time, emit func(wStart sim.Time, owner int, e power.Joules)) {
	if to <= from {
		return
	}
	w := a.Window
	if w <= 0 {
		w = 10 * sim.Microsecond
	}
	sw := obs.NewSweep(a.Rec.spans)
	for lo := from; lo < to; lo = lo.Add(w) {
		hi := min(lo.Add(w), to)
		energy := a.Rail.EnergyBetween(lo, hi)
		if energy <= 0 {
			continue
		}
		uses, _ := sw.Window(lo, hi)
		var total float64
		for _, u := range uses {
			total += u.Occ.Seconds()
		}
		for _, u := range uses {
			emit(lo, u.Owner, energy*u.Occ.Seconds()/total)
		}
	}
}

// wholeHistory folds the reference loop the way Shares, AppEnergy and
// Series fold each.
type wholeHistory struct{ *Accountant }

func (r wholeHistory) Shares(from, to sim.Time) map[int]power.Joules {
	out := make(map[int]power.Joules)
	wholeHistoryEach(r.Accountant, from, to, func(_ sim.Time, owner int, e power.Joules) { out[owner] += e })
	return out
}

func (r wholeHistory) AppEnergy(owner int, from, to sim.Time) power.Joules {
	var total power.Joules
	wholeHistoryEach(r.Accountant, from, to, func(_ sim.Time, o int, e power.Joules) {
		if o == owner {
			total += e
		}
	})
	return total
}

func (r wholeHistory) Series(owner int, from, to sim.Time, step sim.Duration) []power.Sample {
	if step <= 0 {
		step = r.window()
	}
	n := int((to.Sub(from) + step - 1) / step)
	if n <= 0 {
		return nil
	}
	energy := make([]power.Joules, n)
	wholeHistoryEach(r.Accountant, from, to, func(wStart sim.Time, o int, e power.Joules) {
		if b := int(wStart.Sub(from) / step); o == owner && b >= 0 && b < n {
			energy[b] += e
		}
	})
	out := make([]power.Sample, n)
	for i := range energy {
		out[i] = power.Sample{T: from.Add(sim.Duration(i) * step), W: energy[i] / step.Seconds()}
	}
	return out
}

// randomUsage draws a seeded rail and End-ordered spans over [0,
// horizon): bursts of overlapping spans of a few owners, short ones
// inside a window, long ones across many and some across hundreds,
// separated by idle stretches up to 300 windows long; the rail steps
// between levels, zero included, sometimes several times at one instant,
// on a multiple of w or off one, and sometimes holds for hundreds of
// windows. Together the long spans and steady stretches make runs of
// hundreds of identical windows.
func randomUsage(rnd *sim.Rand, w sim.Duration, horizon sim.Time) (*power.Rail, []obs.Interval) {
	e := sim.NewEngine()
	rail := power.NewRail(e, "rail", 1)
	for at := sim.Time(rnd.Intn(50)); at < horizon; at = at.Add(sim.Duration(1 + rnd.Intn(int(20*w)))) {
		switch rnd.Intn(4) {
		case 0:
			at = at.Add(sim.Duration(100+rnd.Intn(400)) * w)
		case 1:
			at = at / sim.Time(w) * sim.Time(w)
		}
		levels := make([]power.Watts, 1+rnd.Intn(2))
		for i := range levels {
			levels[i] = float64(rnd.Intn(5)) * 0.5
		}
		e.At(at, func(sim.Time) {
			for _, l := range levels {
				rail.Set(l)
			}
		})
	}
	e.Run(horizon)
	var spans []obs.Interval
	for at := sim.Time(0); at < horizon; {
		if rnd.Intn(3) == 0 {
			at = at.Add(sim.Duration(rnd.Intn(300)) * w)
			continue
		}
		for n := 1 + rnd.Intn(6); n > 0; n-- {
			start := at.Add(sim.Duration(rnd.Intn(int(3 * w))))
			length := sim.Duration(1 + rnd.Intn(int(w)))
			switch rnd.Intn(6) {
			case 0, 1:
				length = sim.Duration(1 + rnd.Intn(int(40*w)))
			case 2:
				length = sim.Duration(100+rnd.Intn(400)) * w
			}
			if end := min(start.Add(length), horizon); end > start {
				spans = append(spans, obs.Interval{Start: start, End: end, Owner: 1 + rnd.Intn(4)})
			}
		}
		at = at.Add(sim.Duration(1+rnd.Intn(8)) * w)
	}
	slices.SortStableFunc(spans, func(a, b obs.Interval) int { return cmp.Compare(a.End, b.End) })
	return rail, spans
}

// TestMatchesWholeHistoryReference checks Shares, AppEnergy and Series
// bit for bit against the whole-history reference on seeded usage
// (randomUsage): monitor-like contiguous calls from > 0, each made when
// only the spans completed by its end are recorded (so spans straddle
// from), and one-shot calls from 0 and from mid-run over the whole
// record. Neither from nor to need fall on a window boundary, and the
// calls ending short of a boundary clip their last window. Every call
// replays the windows that repeat, so this also holds the replay to the
// loop that computes every window.
func TestMatchesWholeHistoryReference(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		rnd := sim.NewRand(seed)
		w := sim.Duration(10 + rnd.Intn(30))
		horizon := sim.Time(w) * sim.Time(1500+rnd.Intn(1500))
		rail, spans := randomUsage(rnd, w, horizon)
		acc := &Accountant{Rail: rail, Rec: &Recorder{}, Window: w}
		ref := wholeHistory{acc}
		check := func(from, to sim.Time) {
			t.Helper()
			if got, want := acc.Shares(from, to), ref.Shares(from, to); !maps.Equal(got, want) {
				t.Fatalf("seed %d Shares(%d, %d) = %v, want %v", seed, from, to, got, want)
			}
			owner := 1 + rnd.Intn(5) // owner 5 never records a span
			if got, want := acc.AppEnergy(owner, from, to), ref.AppEnergy(owner, from, to); got != want {
				t.Fatalf("seed %d AppEnergy(%d, %d, %d) = %v, want %v", seed, owner, from, to, got, want)
			}
			step := sim.Duration(rnd.Intn(int(5 * w)))
			if got, want := acc.Series(owner, from, to, step), ref.Series(owner, from, to, step); !slices.Equal(got, want) {
				t.Fatalf("seed %d Series(%d, %d, %d, %d) = %v, want %v", seed, owner, from, to, step, got, want)
			}
		}
		tick := w * sim.Duration(10+rnd.Intn(100))
		if rnd.Intn(2) == 0 {
			tick += sim.Duration(rnd.Intn(int(w)))
		}
		next := 0
		for from := sim.Time(0); from < horizon; from = from.Add(tick) {
			to := min(from.Add(tick), horizon)
			for ; next < len(spans) && spans[next].End <= to; next++ {
				acc.Rec.Record(spans[next].Owner, spans[next].Start, spans[next].End)
			}
			check(from, to)
		}
		check(0, horizon)
		check(0, horizon-sim.Time(1+rnd.Intn(int(w)-1)))
		check(sim.Time(rnd.Int63n(int64(horizon))), horizon)
	}
}
