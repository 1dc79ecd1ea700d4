package obs

import (
	"fmt"
	"io"
	"math"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

// Interval is one stretch of attributable activity on a rail: an owner's
// task on a core, its command on an accelerator, its frame in the air.
type Interval struct {
	Start, End sim.Time
	Owner      int
}

// Gap is a stretch with no trustworthy DAQ samples (a meter dropout);
// blame computed inside one is flagged Degraded.
type Gap struct {
	From, To sim.Time
}

// GapCursor is the one statement of the dropout rule that Meter.Samples,
// Attribute and Sweep.Runs share. For sample instants in increasing order
// it reports whether a gap drops the sample and whether one degrades its
// window, walking the gaps forward instead of searching them. The gaps
// must be sorted and disjoint, as Meter.Dropouts returns them. The zero
// GapCursor has no gaps.
type GapCursor struct {
	gaps []Gap
	i    int // first gap ending after the last instant asked about
}

// NewGapCursor starts a cursor over gaps, which it reads in place.
func NewGapCursor(gaps []Gap) GapCursor { return GapCursor{gaps: gaps} }

// Sample reports whether a gap drops the sample at t, which it does when
// From ≤ t < To, and whether the sample's window [t, t+period) overlaps a
// gap, which marks the window degraded; a window that only touches a
// gap's edge does not overlap it. It also reports the first gap bound
// after t, or the end of time if none: every window from t on that ends
// at or before that bound gets the same two answers. t must not be before
// the previous call's.
func (c *GapCursor) Sample(t sim.Time, period sim.Duration) (dropped, degraded bool, next sim.Time) {
	// Gaps are disjoint and sorted, so they end in order too: the first
	// gap ending after t is the only one that can hold t, and the only
	// one that can start before the window ends if it does not.
	for c.i < len(c.gaps) && c.gaps[c.i].To <= t {
		c.i++
	}
	if c.i == len(c.gaps) {
		return false, false, math.MaxInt64
	}
	g := c.gaps[c.i]
	if next = g.To; g.From > t {
		next = g.From
	}
	return g.From <= t, g.From < t.Add(period), next
}

// Share is one owner's fraction of a sample's power.
type Share struct {
	Owner int
	Frac  float64
}

// Blame is one attributed power sample: the measured watts split into
// per-owner shares that always sum to 1.0. Owner 0 collects both kernel
// activity and idle floor power.
type Blame struct {
	T        sim.Time
	W        power.Watts
	Shares   []Share // sorted by Owner
	Degraded bool    // window overlaps a meter dropout
}

// Attribute joins meter samples with activity intervals: each sample's
// window [T, T+period) is split among the owners active in it. An owner's
// share is its fraction of total occupancy, scaled by how much of the
// window was covered at all; the uncovered remainder — idle floor power —
// goes to owner 0. Shares therefore sum to exactly 1.0 per sample, which
// the edge-case tests assert across context switches, DVFS overlap, and
// dropout gaps. Samples must come in increasing time order, as
// Meter.Samples returns them, and gaps sorted and disjoint, as
// Meter.Dropouts returns them.
func Attribute(samples []power.Sample, period sim.Duration, intervals []Interval, gaps []Gap) []Blame {
	if period <= 0 {
		panic("obs: attribution needs a positive sample period")
	}
	sw := NewSweep(intervals)
	gc := NewGapCursor(gaps)
	out := make([]Blame, 0, len(samples))
	for _, s := range samples {
		lo, hi := s.T, s.T.Add(period)
		uses, covered := sw.Window(lo, hi)
		var total sim.Duration
		for _, u := range uses {
			total += u.Occ
		}
		idle := float64(period-covered) / float64(period)
		activeFrac := float64(covered) / float64(period)
		shares := make([]Share, 1, 1+len(uses))
		for _, u := range uses {
			frac := float64(float64(u.Occ) / float64(total) * activeFrac)
			if u.Owner == 0 {
				idle += frac
				continue
			}
			shares = append(shares, Share{Owner: u.Owner, Frac: frac})
		}
		shares[0] = Share{Owner: 0, Frac: idle}
		_, degraded, _ := gc.Sample(s.T, period)
		out = append(out, Blame{T: s.T, W: s.W, Shares: shares, Degraded: degraded})
	}
	return out
}

// IntervalsFromEvents extracts the activity intervals for one rail from a
// trace: every span event whose Rail matches. Events arrive oldest-first
// from Bus.Events, so the result is deterministic.
func IntervalsFromEvents(events []Event, rail string) []Interval {
	var out []Interval
	for _, ev := range events {
		if ev.Type != TypeSpan || ev.Rail != rail {
			continue
		}
		out = append(out, Interval{Start: ev.T, End: ev.End, Owner: ev.Owner})
	}
	return out
}

// WriteBlame renders an attribution timeline as stable text: one line per
// sample with the measured watts and each owner's share.
func WriteBlame(w io.Writer, rail string, blames []Blame, owners map[int]string) error {
	if _, err := fmt.Fprintf(w, "# blame timeline rail=%s samples=%d\n", rail, len(blames)); err != nil {
		return err
	}
	for _, bl := range blames {
		flag := ""
		if bl.Degraded {
			flag = " DEGRADED"
		}
		if _, err := fmt.Fprintf(w, "%12d %8.4fW%s", int64(bl.T), bl.W, flag); err != nil {
			return err
		}
		for _, sh := range bl.Shares {
			name := owners[sh.Owner]
			if sh.Owner == 0 {
				name = "idle"
			} else if name == "" {
				name = fmt.Sprintf("app%d", sh.Owner)
			}
			if _, err := fmt.Fprintf(w, " %s=%.4f", name, sh.Frac); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
