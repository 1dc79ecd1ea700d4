package core

import (
	"psbox/internal/hw/power"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// vseg is one span of the virtual meter's timeline: while resident the
// sandbox observes the real rail; otherwise it is fed idle power.
type vseg struct {
	start, end sim.Time
	resident   bool
}

// VirtualMeter is the per-(box, rail) virtual power meter of §3: it
// reveals the metered hardware power only while the box's resource balloon
// is resident on that hardware, and synthesizes idle-power samples for all
// other entered time. Concurrent apps therefore contribute at most periods
// of idle power to the observation.
//
// When the DAQ loses samples (an injected dropout window), the meter runs
// in degraded mode over the gap: instead of silently under-reporting, it
// holds the last DAQ-visible power across the gap as a model-based
// estimate, flags the gap, and keeps the energy observation monotone.
type VirtualMeter struct {
	rail   *power.Rail
	idleW  power.Watts
	period sim.Duration

	// gaps reports DAQ dropout windows overlapping a span; nil when the
	// observation path has no sampled DAQ behind it.
	gaps func(a, b sim.Time) []obs.Gap

	entered  bool
	resident bool
	segStart sim.Time
	segs     []vseg

	// Closed segments never change and dropouts cannot be injected
	// retroactively, so their energy folds into a running total; Energy is
	// then O(new segments), which keeps the per-Run invariant audit cheap.
	accIdx  int
	accJ    power.Joules
	accEstJ power.Joules
	accGaps int

	sampleCursor sim.Time // next sample tick for drain-style reads
}

func newVirtualMeter(rail *power.Rail, idleW power.Watts, period sim.Duration,
	gaps func(a, b sim.Time) []obs.Gap) *VirtualMeter {
	return &VirtualMeter{rail: rail, idleW: idleW, period: period, gaps: gaps}
}

func (v *VirtualMeter) enter(now sim.Time) {
	if v.entered {
		return
	}
	v.entered = true
	v.resident = false
	v.segStart = now
	if v.sampleCursor < now {
		v.sampleCursor = now
	}
}

func (v *VirtualMeter) leave(now sim.Time) {
	if !v.entered {
		return
	}
	v.closeSeg(now)
	v.entered = false
	v.resident = false
}

func (v *VirtualMeter) setResident(now sim.Time, r bool) {
	if !v.entered || v.resident == r {
		return
	}
	v.closeSeg(now)
	v.resident = r
	v.segStart = now
}

func (v *VirtualMeter) closeSeg(now sim.Time) {
	if now > v.segStart {
		v.segs = append(v.segs, vseg{start: v.segStart, end: now, resident: v.resident})
	}
	v.segStart = now
}

// forEachSeg visits closed segments plus the open one (clipped to now).
func (v *VirtualMeter) forEachSeg(now sim.Time, fn func(vseg)) {
	for _, s := range v.segs {
		fn(s)
	}
	if v.entered && now > v.segStart {
		fn(vseg{start: v.segStart, end: now, resident: v.resident})
	}
}

// segEnergy integrates one segment, splitting resident spans around DAQ
// dropout gaps: direct is DAQ-backed (or synthesized-idle) energy, est is
// the sample-and-hold estimate over gaps.
func (v *VirtualMeter) segEnergy(s vseg) (direct, est power.Joules, gaps int) {
	span := s.end.Sub(s.start).Seconds()
	if !s.resident {
		return v.idleW * span, 0, 0
	}
	if v.gaps == nil {
		return v.rail.EnergyBetween(s.start, s.end), 0, 0
	}
	cur := s.start
	for _, w := range v.gaps(s.start, s.end) {
		if w.From > cur {
			direct += v.rail.EnergyBetween(cur, w.From)
		}
		est += float64(v.holdPower(w.From) * w.To.Sub(w.From).Seconds())
		gaps++
		cur = w.To
	}
	if cur < s.end {
		direct += v.rail.EnergyBetween(cur, s.end)
	}
	return direct, est, gaps
}

// holdPower is the degraded-mode estimate over a gap starting at t: the
// last power the DAQ delivered before the samples stopped.
func (v *VirtualMeter) holdPower(t sim.Time) power.Watts {
	if t > 0 {
		t = t.Add(-sim.Nanosecond)
	}
	return v.rail.PowerAt(t)
}

// fold accumulates all closed segments into the running totals.
func (v *VirtualMeter) fold() {
	for ; v.accIdx < len(v.segs); v.accIdx++ {
		d, e, g := v.segEnergy(v.segs[v.accIdx])
		v.accJ += d
		v.accEstJ += e
		v.accGaps += g
	}
}

// Energy reports the accumulated virtual-meter energy over all entered
// time up to now, estimated gap energy included.
func (v *VirtualMeter) Energy(now sim.Time) power.Joules {
	d, e, _ := v.EnergyDetail(now)
	return d + e
}

// EnergyDetail splits the accumulated observation into DAQ-backed energy,
// estimated (dropout-gap) energy, and the number of gaps estimated across.
func (v *VirtualMeter) EnergyDetail(now sim.Time) (direct, est power.Joules, gaps int) {
	v.fold()
	direct, est, gaps = v.accJ, v.accEstJ, v.accGaps
	if v.entered && now > v.segStart {
		d, e, g := v.segEnergy(vseg{start: v.segStart, end: now, resident: v.resident})
		direct += d
		est += e
		gaps += g
	}
	return direct, est, gaps
}

// SamplesBetween synthesizes the virtual meter's timestamped samples over
// [from, to): real rail samples inside residency, idle power elsewhere in
// entered spans, and sample-and-hold estimates inside DAQ dropout gaps.
// Time outside entered spans yields no samples — the app may only observe
// power from inside its sandbox.
func (v *VirtualMeter) SamplesBetween(from, to sim.Time, dst []power.Sample) []power.Sample {
	v.forEachSeg(to, func(s vseg) {
		lo, hi := s.start, s.end
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi <= lo {
			return
		}
		if !s.resident {
			dst = v.synthSamples(lo, hi, v.idleW, dst)
			return
		}
		if v.gaps == nil {
			dst = v.rail.SamplesBetween(lo, hi, v.period, dst)
			return
		}
		cur := lo
		for _, w := range v.gaps(lo, hi) {
			if w.From > cur {
				dst = v.rail.SamplesBetween(cur, w.From, v.period, dst)
			}
			dst = v.synthSamples(w.From, w.To, v.holdPower(w.From), dst)
			cur = w.To
		}
		if cur < hi {
			dst = v.rail.SamplesBetween(cur, hi, v.period, dst)
		}
	})
	return dst
}

// synthSamples appends constant-power samples on the DAQ tick grid over
// [lo, hi).
func (v *VirtualMeter) synthSamples(lo, hi sim.Time, w power.Watts, dst []power.Sample) []power.Sample {
	first := (int64(lo) + int64(v.period) - 1) / int64(v.period) * int64(v.period)
	for t := sim.Time(first); t < hi; t = t.Add(v.period) {
		dst = append(dst, power.Sample{T: t, W: w})
	}
	return dst
}

// Drain returns up to max new samples since the previous Drain, advancing
// the cursor — the psbox_sample(buf, n) continuous-collection interface.
func (v *VirtualMeter) Drain(now sim.Time, max int) []power.Sample {
	if max <= 0 {
		return nil
	}
	out := v.SamplesBetween(v.sampleCursor, now, nil)
	if len(out) > max {
		out = out[:max]
	}
	if len(out) > 0 {
		v.sampleCursor = out[len(out)-1].T.Add(v.period)
	} else {
		v.sampleCursor = now
	}
	return out
}
