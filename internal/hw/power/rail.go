// Package power models measurable power rails.
//
// A Rail is one hardware power-metering scope (the paper's platforms expose
// four: CPU, GPU, DSP and WiFi). Components record every power-state change
// into their rail, making rail power an exact piecewise-constant function of
// simulated time. Metering (internal/meter) then *samples* the rail like a
// DAQ would, while energy queries integrate the underlying function exactly.
package power

import (
	"fmt"
	"sort"

	"psbox/internal/sim"
)

// Watts is instantaneous power in watts.
type Watts = float64

// Joules is energy in joules.
type Joules = float64

// Sample is one timestamped power reading, as a DAQ would deliver it.
type Sample struct {
	T sim.Time
	W Watts
}

type segment struct {
	start sim.Time
	w     Watts
}

// Rail records the power drawn through one metering scope as a
// piecewise-constant function of time.
type Rail struct {
	name     string
	eng      *sim.Engine
	segs     []segment
	onChange []func(Watts)
}

// OnChange registers a callback fired after every effective power change
// (coalesced sets do not fire). Aggregating rails subscribe through it.
func (r *Rail) OnChange(fn func(Watts)) { r.onChange = append(r.onChange, fn) }

// NewRail creates a rail that draws initial watts from time zero.
func NewRail(eng *sim.Engine, name string, initial Watts) *Rail {
	if initial < 0 {
		panic("power: negative initial power")
	}
	return &Rail{
		name: name,
		eng:  eng,
		segs: []segment{{start: 0, w: initial}},
	}
}

// Name reports the rail's metering-scope name.
func (r *Rail) Name() string { return r.name }

// Power reports the instantaneous power right now.
func (r *Rail) Power() Watts { return r.segs[len(r.segs)-1].w }

// Set records that the rail draws w watts from the current instant onward.
// Redundant sets (same value) are coalesced.
func (r *Rail) Set(w Watts) {
	if w < 0 {
		panic(fmt.Sprintf("power: rail %s set to negative %v W", r.name, w))
	}
	now := r.eng.Now()
	last := &r.segs[len(r.segs)-1]
	if last.w == w {
		return
	}
	if last.start == now {
		// Multiple transitions at the same instant: keep only the final one,
		// but avoid creating a zero-length duplicate of the previous value.
		last.w = w
		if len(r.segs) >= 2 && r.segs[len(r.segs)-2].w == w {
			r.segs = r.segs[:len(r.segs)-1]
		}
	} else {
		r.segs = append(r.segs, segment{start: now, w: w})
	}
	for _, fn := range r.onChange {
		fn(w)
	}
}

// Adjust adds delta watts from now onward. Components with additive power
// contributions (e.g. per-pixel display power) use this.
func (r *Rail) Adjust(delta Watts) { r.Set(r.Power() + delta) }

// locate returns the index of the segment containing t.
func (r *Rail) locate(t sim.Time) int {
	// First segment with start > t, minus one.
	i := sort.Search(len(r.segs), func(i int) bool { return r.segs[i].start > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// PowerAt reports the power drawn at instant t (t must not be in the
// future; the rail only knows the past and present).
func (r *Rail) PowerAt(t sim.Time) Watts {
	if t > r.eng.Now() {
		panic("power: PowerAt in the future")
	}
	if t < 0 {
		t = 0
	}
	return r.segs[r.locate(t)].w
}

// EnergyBetween integrates rail power exactly over [a, b).
func (r *Rail) EnergyBetween(a, b sim.Time) Joules {
	if b <= a {
		return 0
	}
	r.checkPast(b)
	e, _ := r.integrate(r.locate(a), a, b)
	return e
}

func (r *Rail) checkPast(t sim.Time) {
	if t > r.eng.Now() {
		panic("power: EnergyBetween reaching into the future")
	}
}

// integrate sums power over [a, b), a < b, starting from segment i, the
// one containing a, and returns the energy and the index of the segment
// the walk stopped in, the last one starting before b.
func (r *Rail) integrate(i int, a, b sim.Time) (Joules, int) {
	var e Joules
	for ; i < len(r.segs); i++ {
		segStart := r.segs[i].start
		segEnd := b
		if i+1 < len(r.segs) && r.segs[i+1].start < b {
			segEnd = r.segs[i+1].start
		}
		if segStart < a {
			segStart = a
		}
		if segEnd > segStart {
			e += float64(r.segs[i].w * segEnd.Sub(segStart).Seconds())
		}
		if segEnd == b {
			break
		}
	}
	return e, i
}

// Cursor integrates a rail over windows in increasing time order. It
// walks the segments forward from one window to the next instead of
// searching for each window's first segment, and each window's energy
// is bit for bit what EnergyBetween returns for it.
type Cursor struct {
	r    *Rail
	i    int      // segment the last window's walk stopped in
	done sim.Time // end of the last window
	end  sim.Time // end of the range the cursor was made for
}

// Cursor positions a cursor for windows within [from, to). Like
// EnergyBetween, it panics if to is in the future: it checks the whole
// range once, so a caller that skips windows still cannot read past now.
func (r *Rail) Cursor(from, to sim.Time) Cursor {
	r.checkPast(to)
	return Cursor{r: r, i: r.locate(from), done: from, end: to}
}

// EnergyBetween integrates rail power exactly over [a, b). Windows must
// lie within the cursor's range, and a window must not start before the
// previous one ended; either mistake panics.
func (c *Cursor) EnergyBetween(a, b sim.Time) Joules {
	if b <= a {
		return 0
	}
	if a < c.done || b > c.end {
		panic(fmt.Sprintf("power: cursor window [%d, %d) outside [%d, %d)", a, b, c.done, c.end))
	}
	c.done = b
	segs := c.r.segs
	for c.i+1 < len(segs) && segs[c.i+1].start <= a {
		c.i++
	}
	e, i := c.r.integrate(c.i, a, b)
	c.i = i
	return e
}

// SamplesBetween synthesizes DAQ samples over [a, b) at the given period,
// appending to dst and returning it. The first sample lands on the first
// multiple of period ≥ a, mirroring a free-running ADC.
func (r *Rail) SamplesBetween(a, b sim.Time, period sim.Duration, dst []Sample) []Sample {
	if period <= 0 {
		panic("power: non-positive sample period")
	}
	first := (int64(a) + int64(period) - 1) / int64(period) * int64(period)
	for t := sim.Time(first); t < b; t = t.Add(period) {
		dst = append(dst, Sample{T: t, W: r.PowerAt(t)})
	}
	return dst
}

// Segments returns the number of recorded power transitions.
func (r *Rail) Segments() int { return len(r.segs) }

// TrimBefore discards transition history strictly before t, keeping the
// value in effect at t as the new first segment. Nothing calls it yet; it
// is the primitive a bounded-history mode would use to cap memory on long
// horizons.
func (r *Rail) TrimBefore(t sim.Time) {
	i := r.locate(t)
	if i == 0 {
		return
	}
	kept := r.segs[i:]
	first := segment{start: t, w: kept[0].w}
	if kept[0].start < t {
		kept[0] = first
	}
	r.segs = append(r.segs[:0], kept...)
}
