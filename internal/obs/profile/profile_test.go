package profile

import (
	"slices"
	"strings"
	"testing"

	"psbox/internal/hw/power"
	"psbox/internal/obs"
	"psbox/internal/sim"
	"psbox/internal/snapshot"
)

const ms = sim.Millisecond

func name(owner int) string {
	if owner == 0 {
		return "kernel"
	}
	return map[int]string{1: "vision", 2: "maps"}[owner]
}

// steadyRail returns a rail drawing w watts, its engine run to now.
func steadyRail(w power.Watts, now sim.Time) *power.Rail {
	e := sim.NewEngine()
	r := power.NewRail(e, "cpu", w)
	e.Run(now)
	return r
}

// testFold runs one canonical fold: a 10ms window at 2W with vision on
// the CPU for the first half, maps for the last quarter, and the rest
// uncovered.
func testFold(p *Profiler) {
	spans := []obs.Interval{
		{Start: sim.Time(7500 * sim.Microsecond), End: sim.Time(10 * ms), Owner: 2},
		{Start: 0, End: sim.Time(5 * ms), Owner: 1},
	}
	p.FoldRail(steadyRail(2.0, sim.Time(10*ms)), obs.CatSched, 0, sim.Time(10*ms), 10*ms, spans, nil, name)
}

func TestFoldRailSplitsEnergy(t *testing.T) {
	p := New()
	p.Enable()
	testFold(p)

	// 2W over 10ms = 0.02 J. Coverage is 7.5ms of 10ms, so the active
	// fraction is 0.75; vision holds 5ms of 7.5ms occupancy, maps 2.5ms.
	want := map[Key]float64{
		{App: "vision", Comp: obs.CatSched, Rail: "cpu"}: 0.02 * 0.75 * (5.0 / 7.5),
		{App: "maps", Comp: obs.CatSched, Rail: "cpu"}:   0.02 * 0.75 * (2.5 / 7.5),
		{App: IdleApp, Comp: IdleComp, Rail: "cpu"}:      0.02 * 0.25,
	}
	es := p.Entries()
	if len(es) != len(want) {
		t.Fatalf("entries = %+v, want %d stacks", es, len(want))
	}
	var sum float64
	for _, e := range es {
		w := want[Key{App: e.App, Comp: e.Comp, Rail: e.Rail}]
		if diff := e.J - w; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s;%s;%s = %v, want %v", e.App, e.Comp, e.Rail, e.J, w)
		}
		sum += e.J
	}
	if diff := sum - 0.02; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("profile total %v J, want the window's full 0.02 J", sum)
	}
	if p.Windows() != 1 || p.Degraded() != 0 {
		t.Errorf("windows=%d degraded=%d, want 1/0", p.Windows(), p.Degraded())
	}
}

// A disabled profiler folds nothing — the free-when-off contract.
func TestFoldDisabledIsNoOp(t *testing.T) {
	p := New()
	testFold(p)
	if len(p.Entries()) != 0 || p.Windows() != 0 {
		t.Fatalf("disabled profiler accumulated state: %+v", p.Entries())
	}
	if p.Enabled() {
		t.Fatal("never-enabled profiler reports enabled")
	}
}

func TestFoldCountsDegradedWindows(t *testing.T) {
	p := New()
	p.Enable()
	gaps := []obs.Gap{{From: sim.Time(12 * ms), To: sim.Time(15 * ms)}}
	p.FoldRail(steadyRail(1, sim.Time(20*ms)), obs.CatSched, 0, sim.Time(20*ms), 10*ms, nil, gaps, name)
	if p.Windows() != 2 || p.Degraded() != 1 {
		t.Fatalf("windows=%d degraded=%d, want 2/1", p.Windows(), p.Degraded())
	}
}

func TestAdvanceWatermarkMonotone(t *testing.T) {
	p := New()
	p.Advance(sim.Time(50 * ms))
	p.Advance(sim.Time(20 * ms))
	if got := p.Through(); got != sim.Time(50*ms) {
		t.Fatalf("watermark = %v, want 50ms (never moves back)", got)
	}
}

func TestMergeEntriesSumsAndSorts(t *testing.T) {
	a := []Entry{
		{App: "vision", Comp: "sched", Rail: "cpu", J: 0.5},
		{App: "idle", Comp: "floor", Rail: "cpu", J: 0.1},
	}
	b := []Entry{
		{App: "vision", Comp: "sched", Rail: "cpu", J: 0.25},
		{App: "maps", Comp: "net", Rail: "wifi", J: 0.05},
	}
	m := MergeEntries(a, b)
	want := []Entry{
		{App: "idle", Comp: "floor", Rail: "cpu", J: 0.1},
		{App: "maps", Comp: "net", Rail: "wifi", J: 0.05},
		{App: "vision", Comp: "sched", Rail: "cpu", J: 0.75},
	}
	if len(m) != len(want) {
		t.Fatalf("merged = %+v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Errorf("merged[%d] = %+v, want %+v", i, m[i], want[i])
		}
	}
}

func TestWriteFoldedFormat(t *testing.T) {
	entries := []Entry{
		{App: "idle", Comp: "floor", Rail: "cpu", J: 0.005},
		{App: "maps", Comp: "accel", Rail: "gpu", J: 1e-9}, // rounds to 0 µJ: skipped
		{App: "vision", Comp: "sched", Rail: "cpu", J: 0.0100004},
	}
	var sb strings.Builder
	if err := WriteFolded(&sb, entries); err != nil {
		t.Fatal(err)
	}
	want := "idle;floor;cpu 5000\nvision;sched;cpu 10000\n"
	if sb.String() != want {
		t.Fatalf("folded stacks:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWriteTopRanksAndTiesDeterministically(t *testing.T) {
	entries := []Entry{
		{App: "b", Comp: "x", Rail: "cpu", J: 0.5},
		{App: "a", Comp: "x", Rail: "cpu", J: 0.5}, // tie: "a" must rank before "b"
		{App: "c", Comp: "y", Rail: "gpu", J: 2.0},
	}
	var sb strings.Builder
	if err := WriteTop(&sb, entries, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("top table:\n%s", sb.String())
	}
	if !strings.Contains(lines[0], "top-2 of 3 stacks, total 3.000000000 J") {
		t.Errorf("header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "c") || !strings.Contains(lines[1], "66.67%") {
		t.Errorf("rank 1: %s", lines[1])
	}
	if fields := strings.Fields(lines[2]); fields[1] != "a" {
		t.Errorf("rank 2 tie should be 'a' first: %s", lines[2])
	}
}

// Two identical fold sequences must produce byte-identical snapshots, and
// Restore against the twin verifies clean.
func TestSnapshotRoundTrip(t *testing.T) {
	mk := func() *Profiler {
		p := New()
		p.Enable()
		testFold(p)
		p.Advance(sim.Time(10 * ms))
		return p
	}
	a, b := mk(), mk()
	ea, eb := snapshot.NewEncoder(), snapshot.NewEncoder()
	a.Snapshot(ea)
	b.Snapshot(eb)
	if string(ea.Data()) != string(eb.Data()) {
		t.Fatal("identical folds produced different snapshot bytes")
	}
	ra := snapshot.NewRegistry()
	ra.Add("obs/profile", a.Snapshot)
	ckpt := ra.Checkpoint()
	rb := snapshot.NewRegistry()
	rb.Add("obs/profile", b.Snapshot)
	if err := rb.Restore(ckpt); err != nil {
		t.Fatalf("twin restore: %v", err)
	}
	// A diverged twin must be rejected.
	b.weights[Key{App: "vision", Comp: "sched", Rail: "cpu"}] += 1e-6
	if err := rb.Restore(ckpt); err == nil {
		t.Fatal("diverged profiler passed snapshot verification")
	}
}

// referenceFold is FoldRail's reference: a map-keyed loop over a
// []power.Sample that computes every window in full, with the rail's
// spans picked out of a whole trace. It accumulates into ref.weights and
// counts windows like a Profiler.
func referenceFold(ref *Profiler, rail, comp string, samples []power.Sample, period sim.Duration,
	events []obs.Event, gaps []obs.Gap, ownerName func(int) string) {
	var ivs []obs.Interval
	for _, ev := range events {
		if ev.Type == obs.TypeSpan && ev.Rail == rail {
			ivs = append(ivs, obs.Interval{Start: ev.T, End: ev.End, Owner: ev.Owner})
		}
	}
	idleKey := Key{App: IdleApp, Comp: IdleComp, Rail: rail}

	sw := obs.NewSweep(ivs)
	for _, s := range samples {
		lo, hi := s.T, s.T.Add(period)
		uses, covered := sw.Window(lo, hi)
		joules := float64(s.W) * period.Seconds()
		ref.windows++
		for _, g := range gaps {
			if g.From < hi && g.To > lo {
				ref.degraded++
				break
			}
		}
		var total sim.Duration
		for _, u := range uses {
			total += u.Occ
		}
		activeFrac := float64(covered) / float64(period)
		for _, u := range uses {
			frac := float64(u.Occ) / float64(total) * activeFrac
			ref.weights[Key{App: ownerName(u.Owner), Comp: comp, Rail: rail}] += float64(frac * joules)
		}
		if idle := float64(period-covered) / float64(period); idle > 0 {
			ref.weights[idleKey] += float64(idle * joules)
		}
	}
}

// referenceSamples is what Meter.Samples returns, computed the slow way:
// every tick of the period in [from, to) that no gap holds, each read
// with its own Rail.PowerAt search.
func referenceSamples(r *power.Rail, from, to sim.Time, period sim.Duration, gaps []obs.Gap) []power.Sample {
	var out []power.Sample
	for t := power.FirstTick(from, period); t < to; t = t.Add(period) {
		if !slices.ContainsFunc(gaps, func(g obs.Gap) bool { return g.From <= t && t < g.To }) {
			out = append(out, power.Sample{T: t, W: r.PowerAt(t)})
		}
	}
	return out
}

// clipGaps clips gaps to [from, to) the way Meter.Dropouts does.
func clipGaps(gaps []obs.Gap, from, to sim.Time) []obs.Gap {
	var out []obs.Gap
	for _, g := range gaps {
		if g.To > from && g.From < to {
			out = append(out, obs.Gap{From: max(g.From, from), To: min(g.To, to)})
		}
	}
	return out
}

// randomInstant draws an instant below horizon: on a window start, one
// nanosecond either side of one, or anywhere.
func randomInstant(rnd *sim.Rand, period sim.Duration, horizon sim.Time) sim.Time {
	tick := sim.Time(rnd.Int63n(int64(horizon)/int64(period))) * sim.Time(period)
	switch rnd.Intn(4) {
	case 0:
		return tick
	case 1:
		return min(tick+1, horizon-1)
	case 2:
		return max(tick-1, 0)
	}
	return sim.Time(rnd.Int63n(int64(horizon)))
}

// randomFoldCase draws a seeded rail, trace and dropout set over [0,
// horizon), and the one component the rail's spans belong to. The rail
// holds long steady stretches (up to hundreds of windows) and short ones,
// zero watts among its levels, and changes on window starts, next to them
// and strictly inside windows. Spans of five owners (two sharing one
// name, so two owners share a key) overlap, some run for hundreds of
// windows, some are empty, and their edges fall on, next to and strictly
// inside window starts; a second rail's spans and instants on this rail
// are noise the reference must skip. Some gaps cover a tick and drop its sample; others lie strictly
// between two ticks and only mark the window holding them degraded.
func randomFoldCase(rnd *sim.Rand, period sim.Duration, horizon sim.Time) (*power.Rail, string, []obs.Event, []obs.Gap) {
	e := sim.NewEngine()
	levels := []power.Watts{0, 0.5, 1.25, 2, 3.75}
	r := power.NewRail(e, "cpu", levels[rnd.Intn(len(levels))])
	for at := sim.Time(0); at < horizon; {
		stretch := sim.Duration(1 + rnd.Intn(3))
		if rnd.Intn(2) == 0 {
			stretch = sim.Duration(50 + rnd.Intn(400))
		}
		at = at.Add(stretch * period)
		switch rnd.Intn(3) {
		case 0:
			at = at.Add(1)
		case 1:
			at = at.Add(sim.Duration(rnd.Intn(int(period))))
		}
		w := levels[rnd.Intn(len(levels))]
		e.At(at, func(sim.Time) { r.Set(w) })
	}
	e.Run(horizon)

	cats := []string{obs.CatSched, obs.CatAccel, obs.CatNet}
	comp := cats[rnd.Intn(len(cats))]
	var events []obs.Event
	for n := 5 + rnd.Intn(60); n > 0; n-- {
		start := randomInstant(rnd, period, horizon)
		length := sim.Duration(rnd.Intn(3 * int(period)))
		if rnd.Intn(3) == 0 {
			length = sim.Duration(50+rnd.Intn(500)) * period
		}
		ev := obs.Event{Type: obs.TypeSpan, T: start, End: min(start.Add(length), horizon),
			Cat: comp, Owner: rnd.Intn(5), Rail: "cpu"}
		switch rnd.Intn(8) {
		case 0:
			ev.Rail = "gpu"
		case 1:
			ev.Type = obs.TypeInstant
		}
		events = append(events, ev)
	}

	var gaps []obs.Gap
	for at := sim.Time(0); ; {
		at = power.FirstTick(at, period).Add(sim.Duration(1+rnd.Intn(600)) * period)
		var g obs.Gap
		if rnd.Intn(2) == 0 { // holds no tick: only degrades a window
			g.From = at.Add(1 + sim.Duration(rnd.Intn(int(period)-2)))
			g.To = g.From.Add(1 + sim.Duration(rnd.Intn(int(at.Add(period).Sub(g.From)))))
		} else {
			g.From = at.Add(sim.Duration(rnd.Intn(int(period))))
			g.To = g.From.Add(sim.Duration(1+rnd.Intn(5)) * period)
		}
		if g.To >= horizon {
			return r, comp, events, gaps
		}
		gaps = append(gaps, g)
		at = g.To
	}
}

// TestFoldMatchesReference checks FoldRail, given the rail's intervals,
// bit for bit against referenceFold, given the whole trace, on seeded
// rails and traces (randomFoldCase), across two folds split at a random
// watermark, the second adding into keys the first created. Every entry,
// Windows and Degraded must be equal after each fold.
func TestFoldMatchesReference(t *testing.T) {
	names := []string{"kernel", "vision", "maps", "dup", "dup"}
	ownerName := func(owner int) string { return names[owner] }
	for seed := uint64(1); seed <= 240; seed++ {
		rnd := sim.NewRand(seed)
		period := sim.Duration(10 + rnd.Intn(30))
		horizon := sim.Time(period)*sim.Time(300+rnd.Intn(1500)) + sim.Time(rnd.Intn(int(period)))
		rail, comp, events, gaps := randomFoldCase(rnd, period, horizon)
		spans := obs.IntervalsFromEvents(events, "cpu")
		got, want := New(), New()
		got.Enable()
		mid := randomInstant(rnd, period, horizon)
		for _, span := range [][2]sim.Time{{0, mid}, {mid, horizon}} {
			from, to := span[0], span[1]
			clipped := clipGaps(gaps, from, to)
			got.FoldRail(rail, comp, from, to, period, spans, clipped, ownerName)
			referenceFold(want, "cpu", comp, referenceSamples(rail, from, to, period, clipped), period, events, clipped, ownerName)
			if g, w := got.Entries(), want.Entries(); !slices.Equal(g, w) {
				t.Fatalf("seed %d fold [%d, %d): entries\n%v\nwant\n%v", seed, from, to, g, w)
			}
			if got.Windows() != want.windows || got.Degraded() != want.degraded {
				t.Fatalf("seed %d fold [%d, %d): windows %d degraded %d, want %d and %d",
					seed, from, to, got.Windows(), got.Degraded(), want.windows, want.degraded)
			}
		}
		if want.windows == 0 || len(want.weights) == 0 {
			t.Fatalf("seed %d: nothing folded", seed)
		}
	}
}
