// Package meter models the platforms' in-situ power metering (§5): a DAQ
// sampling each hardware power rail at 100 kHz (the paper's prototypes,
// i.e. one timestamped sample every 10 µs), with timestamps drawn from the
// same clock the apps see.
package meter

import (
	"fmt"
	"sort"

	"psbox/internal/hw/power"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// DefaultPeriod is the paper's 100 kHz sampling interval.
const DefaultPeriod = 10 * sim.Microsecond

// Meter is the DAQ: a set of rails sampled at one rate.
type Meter struct {
	eng   *sim.Engine
	rails map[string]*power.Rail
	names []string

	// drops holds per-rail sample-dropout windows (fault injection: a DAQ
	// buffer overrun, a flaky sense line). Sorted, non-overlapping.
	drops map[string][]obs.Gap

	// Observability (nil-safe; the bus snapshots itself).
	bus *obs.Bus
}

// SetBus routes DAQ sample-window events (dropouts) to a bus.
func (m *Meter) SetBus(b *obs.Bus) { m.bus = b }

// New builds a meter sampling every DefaultPeriod.
func New(eng *sim.Engine) *Meter {
	return &Meter{eng: eng, rails: make(map[string]*power.Rail), drops: make(map[string][]obs.Gap)}
}

// Period reports the sampling interval.
func (m *Meter) Period() sim.Duration { return DefaultPeriod }

// AddRail attaches a metering scope.
func (m *Meter) AddRail(r *power.Rail) {
	if _, dup := m.rails[r.Name()]; dup {
		panic(fmt.Sprintf("meter: rail %q already attached", r.Name()))
	}
	m.rails[r.Name()] = r
	m.names = append(m.names, r.Name())
	sort.Strings(m.names)
}

// Rail returns an attached rail by name.
func (m *Meter) Rail(name string) *power.Rail {
	r, ok := m.rails[name]
	if !ok {
		panic(fmt.Sprintf("meter: no rail %q", name))
	}
	return r
}

// HasRail reports whether a scope is attached.
func (m *Meter) HasRail(name string) bool {
	_, ok := m.rails[name]
	return ok
}

// Rails lists attached scopes in stable order.
func (m *Meter) Rails() []string { return m.names }

// Samples returns the DAQ samples of one rail over [from, to). Samples
// inside injected dropout windows are missing, exactly as a DAQ overrun
// loses them (obs.GapCursor states the rule).
func (m *Meter) Samples(rail string, from, to sim.Time) []power.Sample {
	all := m.Rail(rail).SamplesBetween(from, to, DefaultPeriod, nil)
	drops := m.drops[rail]
	if len(drops) == 0 {
		return all
	}
	gc := obs.NewGapCursor(drops)
	kept := all[:0]
	for _, s := range all {
		if dropped, _, _ := gc.Sample(s.T, DefaultPeriod); !dropped {
			kept = append(kept, s)
		}
	}
	return kept
}

// Energy integrates one rail exactly over [from, to).
func (m *Meter) Energy(rail string, from, to sim.Time) power.Joules {
	return m.Rail(rail).EnergyBetween(from, to)
}

// InjectDropout marks [from, to) of one rail's sample stream as lost.
// Overlapping or adjacent windows merge. The window must not start in the
// past: samples already delivered cannot be un-delivered, and consumers
// (the virtual meters) rely on closed history staying immutable.
func (m *Meter) InjectDropout(rail string, from, to sim.Time) {
	m.Rail(rail) // validate
	if to <= from {
		panic(fmt.Sprintf("meter: dropout window [%v, %v) is empty", from, to))
	}
	if from < m.eng.Now() {
		panic(fmt.Sprintf("meter: dropout window [%v, %v) starts in the past (now %v)",
			from, to, m.eng.Now()))
	}
	m.bus.Instant(obs.CatMeter, "dropout", 0, int64(to.Sub(from)), rail, rail)
	m.bus.Count("meter.dropouts", 0, rail, 1)
	ws := append(m.drops[rail], obs.Gap{From: from, To: to})
	sort.Slice(ws, func(i, j int) bool { return ws[i].From < ws[j].From })
	merged := ws[:1]
	for _, w := range ws[1:] {
		last := &merged[len(merged)-1]
		if w.From <= last.To {
			if w.To > last.To {
				last.To = w.To
			}
			continue
		}
		merged = append(merged, w)
	}
	m.drops[rail] = merged
}

// Dropouts returns the dropout windows of one rail overlapping [from, to),
// clipped to that span.
func (m *Meter) Dropouts(rail string, from, to sim.Time) []obs.Gap {
	var out []obs.Gap
	for _, w := range m.drops[rail] {
		if w.To <= from || w.From >= to {
			continue
		}
		if w.From < from {
			w.From = from
		}
		if w.To > to {
			w.To = to
		}
		out = append(out, w)
	}
	return out
}
