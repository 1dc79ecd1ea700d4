package meter

import (
	"testing"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

func dropFixture(t *testing.T) (*sim.Engine, *Meter) {
	t.Helper()
	e := sim.NewEngine()
	m := New(e) // 10 µs period
	m.AddRail(power.NewRail(e, "cpu", 1.0))
	return e, m
}

func TestDropoutHidesSamples(t *testing.T) {
	e, m := dropFixture(t)
	m.InjectDropout("cpu", sim.Time(300*sim.Microsecond), sim.Time(500*sim.Microsecond))
	e.Run(sim.Time(1 * sim.Millisecond))
	s := m.Samples("cpu", 0, sim.Time(1*sim.Millisecond))
	// 100 samples at 100 kHz over 1 ms, minus the 20 inside [300, 500) µs.
	if len(s) != 80 {
		t.Fatalf("samples = %d, want 80", len(s))
	}
	for _, smp := range s {
		if smp.T >= sim.Time(300*sim.Microsecond) && smp.T < sim.Time(500*sim.Microsecond) {
			t.Fatalf("sample at %v leaked out of the dropout window", smp.T)
		}
	}
	// Exact integration is unaffected: the DAQ lost samples, not the rail.
	if got := m.Energy("cpu", 0, sim.Time(1*sim.Millisecond)); got != 0.001 {
		t.Fatalf("energy = %v", got)
	}
}

func TestDropoutWindowsMerge(t *testing.T) {
	_, m := dropFixture(t)
	us := func(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Microsecond) }
	m.InjectDropout("cpu", us(100), us(200))
	m.InjectDropout("cpu", us(400), us(500))
	m.InjectDropout("cpu", us(150), us(400)) // bridges both
	ws := m.Dropouts("cpu", 0, us(1000))
	if len(ws) != 1 || ws[0].From != us(100) || ws[0].To != us(500) {
		t.Fatalf("windows = %v, want one [100µs, 500µs)", ws)
	}
	m.InjectDropout("cpu", us(500), us(600)) // adjacent: merges too
	ws = m.Dropouts("cpu", 0, us(1000))
	if len(ws) != 1 || ws[0].To != us(600) {
		t.Fatalf("adjacent window did not merge: %v", ws)
	}
}

func TestDropoutsClipToQuery(t *testing.T) {
	_, m := dropFixture(t)
	us := func(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Microsecond) }
	m.InjectDropout("cpu", us(100), us(300))
	m.InjectDropout("cpu", us(700), us(900))
	ws := m.Dropouts("cpu", us(200), us(800))
	if len(ws) != 2 {
		t.Fatalf("windows = %v, want 2", ws)
	}
	if ws[0].From != us(200) || ws[0].To != us(300) {
		t.Fatalf("first window not clipped: %v", ws[0])
	}
	if ws[1].From != us(700) || ws[1].To != us(800) {
		t.Fatalf("second window not clipped: %v", ws[1])
	}
	if got := m.Dropouts("cpu", us(300), us(700)); len(got) != 0 {
		t.Fatalf("query between windows returned %v", got)
	}
}

func TestDropoutRejectsPastAndEmptyWindows(t *testing.T) {
	e, m := dropFixture(t)
	e.Run(sim.Time(1 * sim.Millisecond))
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("past", func() {
		m.InjectDropout("cpu", sim.Time(500*sim.Microsecond), sim.Time(2*sim.Millisecond))
	})
	mustPanic("empty", func() {
		m.InjectDropout("cpu", sim.Time(2*sim.Millisecond), sim.Time(2*sim.Millisecond))
	})
	mustPanic("unknown rail", func() {
		m.InjectDropout("nope", sim.Time(2*sim.Millisecond), sim.Time(3*sim.Millisecond))
	})
}
