// Package profile is psbox's sim-time energy profiler: it folds power
// attribution (blame windows) against the trace's activity spans into a
// weighted stack tree — app → component → rail — whose weights are
// joules. Where the blame timeline answers "who drew this sample's
// power", the profile answers "where did each principal's energy go over
// the whole run", in a form flamegraph tooling already understands
// (collapsed-stack lines) plus a deterministic top-N table.
//
// The profiler follows the trace bus's discipline exactly: it is free
// when off (every fold checks the enabled flag first and a disabled
// profiler allocates and mutates nothing), it reads only simulated
// quantities (meter samples, trace spans, dropout gaps — never host
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
// component that was active (the trace category: sched, accel, net, ...),
// and the power rail the energy was drawn from.
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

// ownerComp identifies one (owner, component) occupant of a rail.
type ownerComp struct {
	owner int
	comp  string
}

func compareOwnerComp(a, b ownerComp) int {
	if c := cmp.Compare(a.owner, b.owner); c != 0 {
		return c
	}
	return cmp.Compare(a.comp, b.comp)
}

// FoldRail folds one rail's samples against the trace's span events: each
// sample window [T, T+period) is split among the (owner, component)
// pairs active in it — occupancy fraction scaled by coverage, the
// obs.Attribute arithmetic, but with each pair a sweep owner of its own so
// the tree separates an app's scheduler time from its accelerator commands
// — and the uncovered remainder is booked to the idle floor. Each share
// times the sampled watts times the period is the window's energy
// contribution.
//
// events is the full trace; FoldRail selects the spans on rail itself.
// ownerName maps owner IDs to app names (owner 0 is conventionally
// "kernel"). The fold is a no-op while the profiler is disabled.
func (p *Profiler) FoldRail(rail string, samples []power.Sample, period sim.Duration,
	events []obs.Event, gaps []obs.Gap, ownerName func(int) string) {
	if p == nil || !p.enabled {
		return
	}
	if period <= 0 {
		panic("profile: fold needs a positive sample period")
	}
	onRail := func(ev obs.Event) bool { return ev.Type == obs.TypeSpan && ev.Rail == rail }
	// Number the pairs in sorted (owner, comp) order and hand the sweep
	// those numbers as owner IDs: a window's answer then lists the pairs
	// in that order, so every key's float accumulation sequence is fixed
	// by sim time and this order, never by map iteration.
	var pairs []ownerComp
	for _, ev := range events {
		if !onRail(ev) {
			continue
		}
		oc := ownerComp{ev.Owner, ev.Cat}
		if i, found := slices.BinarySearchFunc(pairs, oc, compareOwnerComp); !found {
			pairs = slices.Insert(pairs, i, oc)
		}
	}
	var ivs []obs.Interval
	for _, ev := range events {
		if onRail(ev) {
			i, _ := slices.BinarySearchFunc(pairs, ownerComp{ev.Owner, ev.Cat}, compareOwnerComp)
			ivs = append(ivs, obs.Interval{Start: ev.T, End: ev.End, Owner: i})
		}
	}
	keys := make([]Key, len(pairs))
	for i, oc := range pairs {
		keys[i] = Key{App: ownerName(oc.owner), Comp: oc.comp, Rail: rail}
	}
	idleKey := Key{App: IdleApp, Comp: IdleComp, Rail: rail}

	sw := obs.NewSweep(ivs)
	for _, s := range samples {
		lo, hi := s.T, s.T.Add(period)
		uses, covered := sw.Window(lo, hi)
		joules := float64(s.W) * period.Seconds()
		p.windows++
		if obs.OverlapsGap(lo, hi, gaps) {
			p.degraded++
		}
		var total sim.Duration
		for _, u := range uses {
			total += u.Occ
		}
		activeFrac := float64(covered) / float64(period)
		for _, u := range uses {
			frac := float64(u.Occ) / float64(total) * activeFrac
			p.weights[keys[u.Owner]] += float64(frac * joules)
		}
		if idle := float64(period-covered) / float64(period); idle > 0 {
			p.weights[idleKey] += float64(idle * joules)
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

// SortEntries orders entries canonically by (App, Comp, Rail).
func SortEntries(es []Entry) { slices.SortFunc(es, compareEntries) }

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
	SortEntries(out)
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
	SortEntries(ranked) // canonical order first, so the descending sort's ties are fixed
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
