package core_test

import (
	"testing"

	psbox "psbox"
)

// The virtual DVFS governor must reconstruct the utilization of the box's
// own vertical environment: a saturating sandboxed app reaches the top
// operating point even when the scheduler grants it little CPU, and a
// low-duty one stays at the floor even when co-runners keep the machine
// hot.

func TestVirtualGovernorRampsForSaturatingBox(t *testing.T) {
	sys := psbox.NewAM57(91)
	app := sys.Kernel.NewApp("hungry")
	app.Spawn("t", 0, psbox.Loop(psbox.Compute{Cycles: 1e6}))
	for i := 0; i < 2; i++ {
		noise := sys.Kernel.NewApp("noise")
		noise.Spawn("h0", 0, psbox.Loop(psbox.Compute{Cycles: 1e6}))
		noise.Spawn("h1", 1, psbox.Loop(psbox.Compute{Cycles: 1e6}))
	}
	box := sys.Sandbox.MustCreate(app, psbox.HWCPU)
	box.Enter()
	// Sample the frequency whenever the box is resident.
	var atTop, total int
	resident := false
	sys.Kernel.OnResident("cpu", func(id int, r bool) {
		if id == app.ID {
			resident = r
		}
	})
	var poll func(psbox.Time)
	poll = func(psbox.Time) {
		if resident {
			total++
			if sys.Kernel.CPU().FreqIdx() == sys.Kernel.CPU().TopFreqIdx() {
				atTop++
			}
		}
		sys.Eng.After(500*psbox.Microsecond, poll)
	}
	sys.Eng.After(500*psbox.Microsecond, poll)
	sys.Run(2 * psbox.Second)
	if total == 0 {
		t.Fatal("box never resident")
	}
	// After warmup the box should run at its solo operating point — the
	// top one, since alone it would saturate a core.
	if frac := float64(atTop) / float64(total); frac < 0.7 {
		t.Fatalf("box at top frequency only %.0f%% of its residency", frac*100)
	}
}

func TestVirtualGovernorStaysLowForLightBox(t *testing.T) {
	sys := psbox.NewAM57(92)
	app := sys.Kernel.NewApp("light")
	app.Spawn("t", 0, psbox.Loop(
		psbox.Compute{Cycles: 1e6},
		psbox.Sleep{D: 15 * psbox.Millisecond},
	))
	noise := sys.Kernel.NewApp("noise")
	noise.Spawn("h0", 0, psbox.Loop(psbox.Compute{Cycles: 1e6}))
	noise.Spawn("h1", 1, psbox.Loop(psbox.Compute{Cycles: 1e6}))
	box := sys.Sandbox.MustCreate(app, psbox.HWCPU)
	box.Enter()
	var aboveFloor, total, sharedTop, sharedTotal int
	resident := false
	sys.Kernel.OnResident("cpu", func(id int, r bool) {
		if id == app.ID {
			resident = r
		}
	})
	var poll func(psbox.Time)
	poll = func(psbox.Time) {
		if resident {
			total++
			if sys.Kernel.CPU().FreqIdx() != 0 {
				aboveFloor++
			}
		} else {
			sharedTotal++
			if sys.Kernel.CPU().FreqIdx() == sys.Kernel.CPU().TopFreqIdx() {
				sharedTop++
			}
		}
		sys.Eng.After(200*psbox.Microsecond, poll)
	}
	sys.Eng.After(200*psbox.Microsecond, poll)
	sys.Run(2 * psbox.Second)
	if total == 0 {
		t.Fatal("box never resident")
	}
	// The co-runners keep the shared state at the top OPP; the box's own
	// residency must still run at the floor (its solo operating point).
	if frac := float64(aboveFloor) / float64(total); frac > 0.1 {
		t.Fatalf("light box ran above the floor %.0f%% of its residency", frac*100)
	}
	if frac := float64(sharedTop) / float64(sharedTotal); frac < 0.8 {
		t.Fatalf("co-runners held the top OPP only %.0f%% of shared time", frac*100)
	}
}
