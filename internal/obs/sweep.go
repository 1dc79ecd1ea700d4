package obs

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

// Sweep is the one windowed-occupancy kernel behind every energy
// attribution view: the baseline accountant (internal/account), the blame
// joiner (Attribute) and the energy profiler (internal/obs/profile). Each
// is a fold over the per-window answers of a sweep line across one rail's
// intervals.
//
// The contract:
//
//   - Occupancy is integer: an owner's occupancy of a window is the summed
//     overlap of its intervals with the window, overlapping intervals of
//     one owner counting with multiplicity. Coverage is the length of the
//     union of all intervals within the window.
//   - Owners are numbered densely in ascending ID, and a window's answer
//     lists them in that order — the order every float accumulation
//     downstream is fixed by.
//   - Windows come in increasing time order, possibly with gaps between
//     them (the meter drops samples around a dropout); a window that
//     starts before the previous one ended panics.
//
// NewSweep sorts the interval edges once; Window then carries the open
// intervals forward from one window to the next instead of rescanning
// them, does work in proportion to the owners active in the window, and
// allocates nothing. Runs answers a grid of equal windows once per run of
// windows that get one answer: attribution costs per edge, not per window.
type Sweep struct {
	ivs    []Interval     // read in place, never modified
	edges  []uint32       // 2i is the start of ivs[i], 2i+1 its end; sorted by time
	rank   []int32        // per interval: its owner's index in owners
	owners []int          // distinct owner IDs, ascending
	open   []int          // per rank: intervals open at the sweep line
	active []int32        // ranks with an open interval, unordered
	occ    []sim.Duration // per rank: occupancy of the current window
	hit    []int32        // ranks with occupancy in the current window
	uses   []Use          // the last window's answer
	next   int            // first edge not yet applied
	done   sim.Time       // end of the last window
}

// Use is one owner's occupancy of a window.
type Use struct {
	Owner int
	Occ   sim.Duration
}

// NewSweep prepares a sweep over intervals, which it reads in place: the
// caller must not modify them while the sweep is in use. Intervals that
// end at or before their start occupy nothing.
func NewSweep(intervals []Interval) *Sweep {
	s := &Sweep{ivs: intervals, done: math.MinInt64}
	for _, iv := range intervals {
		if r, found := slices.BinarySearch(s.owners, iv.Owner); !found {
			s.owners = slices.Insert(s.owners, r, iv.Owner)
		}
	}
	s.edges = make([]uint32, 0, 2*len(intervals))
	s.rank = make([]int32, len(intervals))
	for i, iv := range intervals {
		r, _ := slices.BinarySearch(s.owners, iv.Owner)
		s.rank[i] = int32(r)
		if iv.End > iv.Start {
			s.edges = append(s.edges, uint32(i)<<1, uint32(i)<<1|1)
		}
	}
	slices.SortFunc(s.edges, func(a, b uint32) int { return cmp.Compare(s.at(a), s.at(b)) })
	k := len(s.owners)
	s.open = make([]int, k)
	s.occ = make([]sim.Duration, k)
	s.active = make([]int32, 0, k)
	s.hit = make([]int32, 0, k)
	s.uses = make([]Use, 0, k)
	return s
}

// Owners returns the intervals' distinct owner IDs in ascending order, the
// order every answer lists them in (shared slice; do not mutate).
func (s *Sweep) Owners() []int { return s.owners }

// Window advances the sweep to [lo, hi) and returns the occupancy of
// every owner that used the window, in ascending owner order, and the
// window's coverage. The returned slice is overwritten by the next call.
func (s *Sweep) Window(lo, hi sim.Time) (uses []Use, covered sim.Duration) {
	if lo < s.done || hi < lo {
		panic(fmt.Sprintf("obs: sweep window [%d, %d) after one ending at %d", lo, hi, s.done))
	}
	s.done = hi
	for _, r := range s.hit {
		s.occ[r] = 0
	}
	s.hit = s.hit[:0]
	s.advance(lo)
	cursor := lo
	for t := s.pending(); t < hi; t = s.pending() {
		covered += s.accrue(t.Sub(cursor))
		cursor = t
		s.apply(s.edges[s.next])
		s.next++
	}
	covered += s.accrue(hi.Sub(cursor))
	slices.Sort(s.hit)
	s.uses = s.uses[:0]
	for _, r := range s.hit {
		s.uses = append(s.uses, Use{Owner: s.owners[r], Occ: s.occ[r]})
	}
	return s.uses, covered
}

// Run is the answer for a run of equal windows: the first window [Lo, Hi)
// and the number of windows, N, that step from Lo by its width and each
// get the answer the first one gets.
type Run struct {
	Lo, Hi            sim.Time
	N                 int
	Uses              []Use        // as Window returns them, overwritten by the next run
	Covered           sim.Duration // as Window returns it
	W                 power.Watts  // the rail's power at Lo
	Dropped, Degraded bool         // as GapCursor.Sample answers Lo
}

// Runs walks the windows [lo, min(lo+w, end)) for lo = first, first+w, …
// below end, in time order, and yields them in runs of windows that get
// one answer. It is the one statement of when a window repeats the one
// before it. A run starting at lo costs one sweep query, one rail read
// and one gap lookup. Its N windows are those that end at or before the
// first edge strictly after lo: an interval edge, the start of the
// rail's next segment, a gap bound, or end. Nothing changes inside them,
// so each has the first window's uses, coverage, watts and flags, and
// the rail draws one power across them all, so each holds the first
// window's energy, bit for bit. N is at least 1: a window with an edge
// strictly inside it, or clipped at end, is a run of its own.
//
// The rail cursor is left at each run's first window, ready for the
// caller to read it with EnergyBetween. The sweep and gaps must not have
// been asked about anything after first.
func (s *Sweep) Runs(rail *power.Cursor, gaps *GapCursor, first, end sim.Time, w sim.Duration, yield func(Run)) {
	for lo := first; lo < end; {
		r := Run{Lo: lo, Hi: min(lo.Add(w), end)}
		s.advance(lo) // the next pending edge is then the first after lo
		spanEdge := s.pending()
		var railEdge, gapEdge sim.Time
		r.W, railEdge = rail.Segment(lo)
		r.Dropped, r.Degraded, gapEdge = gaps.Sample(lo, r.Hi.Sub(lo))
		r.Uses, r.Covered = s.Window(lo, r.Hi)
		r.N = max(1, int(min(spanEdge, railEdge, gapEdge, end).Sub(lo)/w))
		yield(r)
		lo = lo.Add(sim.Duration(r.N) * w)
	}
}

func (s *Sweep) at(e uint32) sim.Time {
	if e&1 == 0 {
		return s.ivs[e>>1].Start
	}
	return s.ivs[e>>1].End
}

// pending is the instant of the first edge not yet applied, or the end
// of time once every edge is.
func (s *Sweep) pending() sim.Time {
	if s.next == len(s.edges) {
		return math.MaxInt64
	}
	return s.at(s.edges[s.next])
}

// advance applies every edge at or before t.
func (s *Sweep) advance(t sim.Time) {
	for s.next < len(s.edges) && s.at(s.edges[s.next]) <= t {
		s.apply(s.edges[s.next])
		s.next++
	}
}

// apply opens or closes the interval of edge e.
func (s *Sweep) apply(e uint32) {
	r := s.rank[e>>1]
	if e&1 == 0 {
		s.open[r]++
		if s.open[r] == 1 {
			s.active = append(s.active, r)
		}
		return
	}
	s.open[r]--
	if s.open[r] == 0 {
		i := slices.Index(s.active, r)
		s.active[i] = s.active[len(s.active)-1]
		s.active = s.active[:len(s.active)-1]
	}
}

// accrue credits dt of the current window to every open interval and
// returns the part of dt that was covered.
func (s *Sweep) accrue(dt sim.Duration) sim.Duration {
	if dt == 0 || len(s.active) == 0 {
		return 0
	}
	for _, r := range s.active {
		if s.occ[r] == 0 {
			s.hit = append(s.hit, r)
		}
		s.occ[r] += dt * sim.Duration(s.open[r])
	}
	return dt
}
