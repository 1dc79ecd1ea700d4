package obs

import (
	"fmt"
	"io"

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
// Meter.Samples returns them.
func Attribute(samples []power.Sample, period sim.Duration, intervals []Interval, gaps []Gap) []Blame {
	if period <= 0 {
		panic("obs: attribution needs a positive sample period")
	}
	sw := NewSweep(intervals)
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
		out = append(out, Blame{T: s.T, W: s.W, Shares: shares, Degraded: OverlapsGap(lo, hi, gaps)})
	}
	return out
}

// OverlapsGap reports whether the window [lo, hi) overlaps any gap; a
// window that only touches a gap's edge does not.
func OverlapsGap(lo, hi sim.Time, gaps []Gap) bool {
	for _, g := range gaps {
		if g.From < hi && g.To > lo {
			return true
		}
	}
	return false
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
