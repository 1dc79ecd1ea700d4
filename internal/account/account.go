// Package account implements the evaluation's baseline comparator: the
// classic two-step approach to app power awareness (§2, §6.1), in which the
// OS meters system power and divides each sample among concurrent apps by
// a heuristic. Per the paper's favorable setup, hardware usage is tracked
// at the lowest software level at 10 µs granularity.
//
// The point of this package is to be *inadequate* in exactly the way the
// paper demonstrates: no division heuristic can undo power entanglement
// that already happened on the shared rail.
package account

import (
	"fmt"
	"slices"
	"sort"

	"psbox/internal/hw/power"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// Policy names a division heuristic. Usage share is the only one: the
// Accountant divides each sample in proportion to each app's hardware
// occupancy within the sampling interval (AppScope-style, ref [96]), and
// intervals with no usage are unattributed.
type Policy int

// PolicyUsageShare is the usage-share heuristic.
const PolicyUsageShare Policy = 0

// Recorder is one rail's occupancy record, which every attribution view
// reads: a span per core occupancy, command execution or frame airtime of
// one app on the metered hardware, and on the CPU each balloon-residency
// (coscheduling) window, which the accountant never reads. Spans of
// different owners may overlap — that overlap is the entanglement. The
// kernel's usage hooks record each entry when it completes, in End order.
type Recorder struct {
	Comp    string         `psbox:"config"` // the trace category of the device's spans
	spans   []obs.Interval // End ascending
	windows []obs.Interval // balloon-residency windows, End ascending
}

// Record appends a span; zero- or negative-length spans are dropped. A
// span ending before the previous one panics: drivers record a span when
// it completes, so only a bug can produce one.
func (r *Recorder) Record(owner int, start, end sim.Time) {
	if end <= start {
		return
	}
	if n := len(r.spans); n > 0 && end < r.spans[n-1].End {
		panic(fmt.Sprintf("account: span [%d, %d) of owner %d ends before the previous span's end %d",
			start, end, owner, r.spans[n-1].End))
	}
	r.spans = append(r.spans, obs.Interval{Start: start, End: end, Owner: owner})
}

// RecordWindow appends a balloon-residency window, dropped like Record's
// spans when empty. One window is open at a time.
func (r *Recorder) RecordWindow(owner int, start, end sim.Time) {
	if end > start {
		r.windows = append(r.windows, obs.Interval{Start: start, End: end, Owner: owner})
	}
}

// Len reports the number of recorded spans.
func (r *Recorder) Len() int { return len(r.spans) }

// Spans returns the recorded spans (shared slice; callers must not
// mutate). Trace rendering uses this to draw multiplexing timelines.
func (r *Recorder) Spans() []obs.Interval { return r.spans }

// Occupancy returns the spans and the balloon windows in a new slice, and
// Comp: what the profile and the blame fold. A nil Recorder has neither.
func (r *Recorder) Occupancy() ([]obs.Interval, string) {
	if r == nil {
		return nil, ""
	}
	return slices.Concat(r.spans, r.windows), r.Comp
}

// Accountant divides one rail's metered power among apps by usage share.
type Accountant struct {
	Rail   *power.Rail
	Rec    *Recorder
	Window sim.Duration // sampling interval; 10 µs in the paper's setup
}

// Shares returns each app's attributed energy over [from, to).
func (a *Accountant) Shares(from, to sim.Time) map[int]power.Joules {
	out := make(map[int]power.Joules)
	a.each(from, to, func(_ sim.Time, owner int, e power.Joules) { out[owner] += e })
	return out
}

// AppEnergy returns one app's attributed energy over [from, to).
func (a *Accountant) AppEnergy(owner int, from, to sim.Time) power.Joules {
	var total power.Joules
	a.each(from, to, func(_ sim.Time, o int, e power.Joules) {
		if o == owner {
			total += e
		}
	})
	return total
}

// Series returns one app's attributed power, averaged over step-sized
// buckets, for trace plotting.
func (a *Accountant) Series(owner int, from, to sim.Time, step sim.Duration) []power.Sample {
	if step <= 0 {
		step = a.window()
	}
	nBuckets := int((to.Sub(from) + step - 1) / step)
	if nBuckets <= 0 {
		return nil
	}
	energy := make([]power.Joules, nBuckets)
	a.each(from, to, func(wStart sim.Time, o int, e power.Joules) {
		if o != owner {
			return
		}
		b := int(wStart.Sub(from) / step)
		if b >= 0 && b < nBuckets {
			//psbox:allow-energyaccum summing already-integrated window shares in deterministic replay order, not raw power×dt
			energy[b] += e
		}
	})
	out := make([]power.Sample, nBuckets)
	for i := range energy {
		out[i] = power.Sample{
			T: from.Add(sim.Duration(i) * step),
			W: energy[i] / step.Seconds(),
		}
	}
	return out
}

// window is the sampling interval, 10 µs when Window is unset.
func (a *Accountant) window() sim.Duration {
	if a.Window <= 0 {
		return 10 * sim.Microsecond
	}
	return a.Window
}

// each divides the rail energy of every window of [from, to) by usage
// share and emits each owner's nonzero share, owners ascending within a
// window, windows in time order.
//
// Its cost follows what [from, to) contains, not the run's history, and
// it costs per edge, not per window. A window no span overlaps emits
// nothing, so each sweeps only the spans ending after from (a suffix,
// since spans are End-ordered). The sweep's Runs groups the windows into
// runs that share one answer; each computes a run's first window in full
// and emits its shares once per window of the run: the same expression of
// the same operands, so every float is the one a window-by-window
// computation makes.
func (a *Accountant) each(from, to sim.Time, emit func(wStart sim.Time, owner int, e power.Joules)) {
	if to <= from {
		return
	}
	w := a.window()
	rail := a.Rail.Cursor(from, to)
	spans := a.Rec.spans
	spans = spans[sort.Search(len(spans), func(i int) bool { return spans[i].End > from }):]
	var gaps obs.GapCursor // the accountant integrates the rail: no DAQ sample is lost
	obs.NewSweep(spans).Runs(&rail, &gaps, from, to, w, func(r obs.Run) {
		if len(r.Uses) == 0 {
			return
		}
		energy := rail.EnergyBetween(r.Lo, r.Hi)
		if energy <= 0 {
			return
		}
		// Total usage in float seconds, summed in ascending-owner order:
		// float addition is not associative, so any other order would
		// move each app's share in the last bits between seeded runs.
		var total float64
		for _, u := range r.Uses {
			total += u.Occ.Seconds()
		}
		for k := range r.N {
			wStart := r.Lo.Add(sim.Duration(k) * w)
			for _, u := range r.Uses {
				emit(wStart, u.Owner, energy*u.Occ.Seconds()/total)
			}
		}
	})
}
