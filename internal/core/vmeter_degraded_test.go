package core

import (
	"math"
	"testing"

	"psbox/internal/hw/power"
	"psbox/internal/meter"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// newDegradedFixture wires a virtual meter to a real DAQ so injected
// dropout windows flow through the gaps callback, as Box.Create does.
func newDegradedFixture() (*sim.Engine, *power.Rail, *meter.Meter, *VirtualMeter) {
	eng := sim.NewEngine()
	rail := power.NewRail(eng, "r", 2.0)
	m := meter.New(eng)
	m.AddRail(rail)
	vm := newVirtualMeter(rail, 0.5, 10*us, func(a, b sim.Time) []obs.Gap {
		return m.Dropouts("r", a, b)
	})
	return eng, rail, m, vm
}

func TestVMeterDegradedHoldsLastPowerAcrossGap(t *testing.T) {
	eng, rail, m, vm := newDegradedFixture()
	vm.enter(eng.Now())
	vm.setResident(eng.Now(), true)
	eng.RunFor(1 * sim.Millisecond)
	rail.Set(3.0)
	m.InjectDropout("r", sim.Time(2000*us), sim.Time(4000*us))
	eng.RunFor(1500 * us)
	rail.Set(9.0) // mid-gap: the DAQ never sees this
	eng.RunFor(2500 * us)

	direct, est, gaps := vm.EnergyDetail(eng.Now())
	if gaps != 1 {
		t.Fatalf("gaps = %d, want 1", gaps)
	}
	// Direct: 2 W over [0, 1ms), 3 W over [1ms, 2ms), 9 W over [4ms, 5ms).
	wantDirect := 2.0*0.001 + 3.0*0.001 + 9.0*0.001
	if math.Abs(direct-wantDirect) > 1e-12 {
		t.Fatalf("direct = %v want %v", direct, wantDirect)
	}
	// Estimate: the last DAQ-visible power (3 W) held across the 2 ms gap.
	if math.Abs(est-3.0*0.002) > 1e-12 {
		t.Fatalf("est = %v want %v", est, 3.0*0.002)
	}
}

func TestVMeterDegradedEnergyStaysMonotone(t *testing.T) {
	eng, rail, m, vm := newDegradedFixture()
	vm.enter(eng.Now())
	vm.setResident(eng.Now(), true)
	m.InjectDropout("r", sim.Time(500*us), sim.Time(2500*us))
	prev := vm.Energy(eng.Now())
	for i := 0; i < 40; i++ {
		eng.RunFor(100 * us)
		rail.Set(float64(i%5) + 0.5) // churn, including inside the gap
		got := vm.Energy(eng.Now())
		if got < prev {
			t.Fatalf("energy went backwards at %v: %v -> %v", eng.Now(), prev, got)
		}
		prev = got
	}
}

func TestVMeterDegradedSamplesHoldValue(t *testing.T) {
	eng, rail, m, vm := newDegradedFixture()
	vm.enter(eng.Now())
	vm.setResident(eng.Now(), true)
	eng.RunFor(1 * sim.Millisecond)
	rail.Set(4.0)
	m.InjectDropout("r", sim.Time(2000*us), sim.Time(3000*us))
	eng.RunFor(3 * sim.Millisecond)

	s := vm.SamplesBetween(0, eng.Now(), nil)
	if len(s) != 400 {
		t.Fatalf("samples = %d, want 400 over 4 ms", len(s))
	}
	for _, x := range s {
		inGap := x.T >= sim.Time(2000*us) && x.T < sim.Time(3000*us)
		switch {
		case x.T < sim.Time(1000*us) && x.W != 2.0:
			t.Fatalf("pre-change sample %v = %v", x.T, x.W)
		case inGap && x.W != 4.0:
			t.Fatalf("gap sample %v = %v, want the 4 W hold", x.T, x.W)
		case !inGap && x.T >= sim.Time(1000*us) && x.W != 4.0:
			t.Fatalf("post-change sample %v = %v", x.T, x.W)
		}
	}
}

func TestVMeterDropoutOutsideResidencyIsInvisible(t *testing.T) {
	eng, _, m, vm := newDegradedFixture()
	vm.enter(eng.Now()) // entered but never resident: pure idle fill
	m.InjectDropout("r", sim.Time(1000*us), sim.Time(2000*us))
	eng.RunFor(3 * sim.Millisecond)
	direct, est, gaps := vm.EnergyDetail(eng.Now())
	if est != 0 || gaps != 0 {
		t.Fatalf("idle fill flagged a DAQ gap: est=%v gaps=%d", est, gaps)
	}
	if math.Abs(direct-0.5*0.003) > 1e-12 {
		t.Fatalf("direct = %v", direct)
	}
}
