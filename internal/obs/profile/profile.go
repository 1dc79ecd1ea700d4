// Package profile is psbox's sim-time energy profiler: it folds power
// attribution (blame windows) against each rail's occupancy record into a
// weighted stack tree — app → component → rail — whose weights are
// joules. Where the blame timeline answers "who drew this sample's
// power", the profile answers "where did each principal's energy go over
// the whole run", in a form flamegraph tooling already understands
// (collapsed-stack lines) plus a deterministic top-N table.
//
// The profiler follows the trace bus's discipline exactly: it is free
// when off (every fold checks the enabled flag first and a disabled
// profiler allocates and mutates nothing), it reads only simulated
// quantities (meter samples, occupancy spans, dropout gaps — never host
// state), and it snapshots like any other stateful layer so a profile
// survives crash-and-resume byte-for-byte (DESIGN.md §"Fleet
// observability").
package profile

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"psbox/internal/hw/power"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// Key addresses one stack in the weighted tree: the owning app, the
// component that was active (the rail device's trace category: sched,
// accel or net), and the power rail the energy was drawn from.
type Key struct {
	App  string
	Comp string
	Rail string
}

// Entry is one stack with its accumulated weight, the portable form the
// fleet rollup merges across shards.
type Entry struct {
	App  string
	Comp string
	Rail string
	J    float64
}

// IdleApp and IdleComp label the uncovered remainder of a sample window —
// floor power no span explains. Owner-0 (kernel) spans keep their real
// component; only the truly unattributed residue lands here.
const (
	IdleApp  = "idle"
	IdleComp = "floor"
)

// Profiler accumulates the folded tree. Like the trace bus it is disabled
// by default, and once enabled it stays on; every folding entry point
// checks the flag first, so an idle profiler costs one branch and changes
// nothing observable.
type Profiler struct {
	enabled  bool
	through  sim.Time
	windows  uint64 // blame windows folded
	degraded uint64 // folded windows overlapping a dropout gap
	weights  map[Key]float64
}

// New returns a disabled profiler.
func New() *Profiler {
	return &Profiler{weights: make(map[Key]float64)}
}

// Enable turns folding on.
func (p *Profiler) Enable() { p.enabled = true }

// Enabled reports whether the profiler is folding. The system checkpoint
// includes the profiler's section exactly when it is enabled, so
// scenarios that never profile keep their historical checkpoint bytes.
func (p *Profiler) Enabled() bool { return p != nil && p.enabled }

// Through is the fold watermark: everything before it has been folded.
// Callers fold [Through, now) and then Advance, so repeated folds never
// double-count a window.
func (p *Profiler) Through() sim.Time { return p.through }

// Advance moves the watermark forward (never back).
func (p *Profiler) Advance(to sim.Time) {
	if to > p.through {
		p.through = to
	}
}

// Windows reports how many blame windows have been folded.
func (p *Profiler) Windows() uint64 {
	if p == nil {
		return 0
	}
	return p.windows
}

// Degraded reports how many folded windows overlapped a meter dropout.
func (p *Profiler) Degraded() uint64 {
	if p == nil {
		return 0
	}
	return p.degraded
}

// FoldRail folds one rail's DAQ samples over [from, to) against spans,
// the rail's occupancy intervals in any order: each sample window
// [T, T+period) is split among the owners active in it — occupancy
// fraction scaled by coverage, the obs.Attribute arithmetic — and the
// uncovered remainder is booked to the idle floor. Each share times the
// sampled watts times the period is the window's energy, booked to the
// stack (ownerName(owner), comp, rail): comp is the component the spans
// belong to. The fold is a no-op while the profiler is disabled.
//
// The samples are the ones Meter.Samples returns, read without building
// them: one every period from the first multiple of period at or after
// from, each the rail's power at its instant, and none where a gap drops
// it. gaps must be sorted and disjoint, as Meter.Dropouts returns them,
// and to must not be in the future. Each window is a full period, so the
// last one may end after to.
//
// The fold costs per edge, not per window: it takes the windows in the
// sweep's runs, computes a run's first window in full, and makes that
// window's additions once per window of the run, in the same order, so
// every weight is bit for bit the sum the window-by-window computation
// makes.
func (p *Profiler) FoldRail(rail *power.Rail, comp string, from, to sim.Time, period sim.Duration,
	spans []obs.Interval, gaps []obs.Gap, ownerName func(int) string) {
	if p == nil || !p.enabled {
		return
	}
	if period <= 0 {
		panic("profile: fold needs a positive sample period")
	}
	name := rail.Name()
	sw := obs.NewSweep(spans)
	owners := sw.Owners()
	// Accumulate in a slice, one slot per key, seeded from the tree, and
	// write back only the slots that received an addition: a +0 still
	// creates its key, as a map += does. owners[i] adds to slot[i], the
	// idle floor to slot[len(owners)]. Owners that share a name share a
	// slot and add to it in ascending owner order, as the sweep lists them.
	slot := make([]int, len(owners)+1)
	keys := make([]Key, 0, len(slot))
	sums := make([]float64, 0, len(slot))
	index := make(map[Key]int, len(slot))
	for i := range slot {
		k := Key{App: IdleApp, Comp: IdleComp, Rail: name}
		if i < len(owners) {
			k = Key{App: ownerName(owners[i]), Comp: comp, Rail: name}
		}
		j, ok := index[k]
		if !ok {
			j = len(keys)
			index[k] = j
			keys = append(keys, k)
			sums = append(sums, p.weights[k])
		}
		slot[i] = j
	}
	added := make([]bool, len(keys))

	type addition struct {
		slot int
		j    float64
	}
	adds := make([]addition, 0, len(slot)) // a run's first window's additions, refilled per run
	gc := obs.NewGapCursor(gaps)
	watts := rail.Cursor(from, to)
	sw.Runs(&watts, &gc, power.FirstTick(from, period), power.FirstTick(to, period), period, func(r obs.Run) {
		if r.Dropped {
			return
		}
		p.windows += uint64(r.N)
		if r.Degraded {
			p.degraded += uint64(r.N)
		}
		joules := float64(r.W) * period.Seconds()
		var total sim.Duration
		for _, u := range r.Uses {
			total += u.Occ
		}
		activeFrac := float64(r.Covered) / float64(period)
		adds = adds[:0]
		for _, u := range r.Uses {
			i, _ := slices.BinarySearch(owners, u.Owner)
			frac := float64(u.Occ) / float64(total) * activeFrac
			adds = append(adds, addition{slot[i], float64(frac * joules)})
		}
		if idle := float64(period-r.Covered) / float64(period); idle > 0 {
			adds = append(adds, addition{slot[len(owners)], float64(idle * joules)})
		}
		for range r.N {
			for _, a := range adds {
				sums[a.slot] += a.j
				added[a.slot] = true
			}
		}
	})
	for j, k := range keys {
		if added[j] {
			p.weights[k] = sums[j]
		}
	}
}

// Entries returns the folded tree in canonical (App, Comp, Rail) order.
func (p *Profiler) Entries() []Entry {
	if p == nil {
		return nil
	}
	out := make([]Entry, 0, len(p.weights))
	for k, j := range p.weights {
		out = append(out, Entry{App: k.App, Comp: k.Comp, Rail: k.Rail, J: j})
	}
	slices.SortFunc(out, compareEntries)
	return out
}

// compareEntries is the canonical (App, Comp, Rail) order.
func compareEntries(a, b Entry) int {
	if c := cmp.Compare(a.App, b.App); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Comp, b.Comp); c != 0 {
		return c
	}
	return cmp.Compare(a.Rail, b.Rail)
}

// MergeEntries folds several entry lists (e.g. per-shard profiles, in
// ascending shard-ID order) into one canonical list. Identical keys sum;
// the input order fixes the float summation order.
func MergeEntries(lists ...[]Entry) []Entry {
	sums := make(map[Key]float64)
	var order []Key
	for _, list := range lists {
		for _, e := range list {
			k := Key{App: e.App, Comp: e.Comp, Rail: e.Rail}
			if _, ok := sums[k]; !ok {
				order = append(order, k)
			}
			sums[k] += e.J
		}
	}
	out := make([]Entry, 0, len(order))
	for _, k := range order {
		out = append(out, Entry{App: k.App, Comp: k.Comp, Rail: k.Rail, J: sums[k]})
	}
	slices.SortFunc(out, compareEntries)
	return out
}

// WriteFolded writes flamegraph-collapsed stacks, one line per stack:
// "app;component;rail <weight>", weight in whole microjoules (rounded).
// Feed it to flamegraph.pl / inferno / speedscope unchanged. Stacks that
// round to zero microjoules are skipped — they would render as invisible
// one-sample frames.
func WriteFolded(w io.Writer, entries []Entry) error {
	for _, e := range entries {
		uj := int64(float64(e.J*1e6) + 0.5)
		if uj <= 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s;%s;%s %d\n", e.App, e.Comp, e.Rail, uj); err != nil {
			return err
		}
	}
	return nil
}

// WriteTop renders the heaviest n stacks as a deterministic table: sorted
// by joules descending, ties broken by (App, Comp, Rail) ascending, with
// each stack's share of the profiled total.
func WriteTop(w io.Writer, entries []Entry, n int) error {
	var total float64
	for _, e := range entries {
		total += e.J
	}
	ranked := append([]Entry(nil), entries...)
	slices.SortFunc(ranked, compareEntries) // canonical order first, so the descending sort's ties are fixed
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].J > ranked[j].J })
	if n > len(ranked) {
		n = len(ranked)
	}
	if _, err := fmt.Fprintf(w, "# energy profile top-%d of %d stacks, total %.9f J\n",
		n, len(ranked), total); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		e := ranked[i]
		share := 0.0
		if total > 0 {
			share = e.J / total
		}
		if _, err := fmt.Fprintf(w, "%3d  %-12s %-10s %-8s %14.9f J  %6.2f%%\n",
			i+1, e.App, e.Comp, e.Rail, e.J, 100*share); err != nil {
			return err
		}
	}
	return nil
}
