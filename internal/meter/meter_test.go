package meter

import (
	"testing"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

func TestMeterBasics(t *testing.T) {
	e := sim.NewEngine()
	m := New(e)
	if m.Period() != DefaultPeriod {
		t.Fatalf("period = %v", m.Period())
	}
	r := power.NewRail(e, "cpu", 1.0)
	m.AddRail(r)
	if !m.HasRail("cpu") || m.HasRail("gpu") {
		t.Fatal("HasRail wrong")
	}
	if len(m.Rails()) != 1 || m.Rails()[0] != "cpu" {
		t.Fatalf("rails = %v", m.Rails())
	}
	e.Run(sim.Time(1 * sim.Millisecond))
	s := m.Samples("cpu", 0, sim.Time(1*sim.Millisecond))
	if len(s) != 100 {
		t.Fatalf("samples = %d, want 100 at 100kHz over 1ms", len(s))
	}
	if got := m.Energy("cpu", 0, sim.Time(1*sim.Millisecond)); got != 0.001 {
		t.Fatalf("energy = %v", got)
	}
}

func TestMeterTimestampsMonotone(t *testing.T) {
	e := sim.NewEngine()
	m := New(e)
	r := power.NewRail(e, "gpu", 0.3)
	m.AddRail(r)
	e.Run(sim.Time(10 * sim.Millisecond))
	s := m.Samples("gpu", sim.Time(1*sim.Millisecond), sim.Time(9*sim.Millisecond))
	for i := 1; i < len(s); i++ {
		if s[i].T != s[i-1].T.Add(DefaultPeriod) {
			t.Fatalf("samples not evenly spaced at %d", i)
		}
	}
}

func TestMeterDuplicateRailPanics(t *testing.T) {
	e := sim.NewEngine()
	m := New(e)
	m.AddRail(power.NewRail(e, "cpu", 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.AddRail(power.NewRail(e, "cpu", 1))
}

func TestMeterUnknownRailPanics(t *testing.T) {
	e := sim.NewEngine()
	m := New(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Rail("nope")
}
