package accel

import (
	"testing"

	"psbox/internal/hw/accelhw"
	"psbox/internal/kernel/fair"
	"psbox/internal/sim"
)

func devCfg() accelhw.Config {
	return accelhw.Config{
		Name:            "dev",
		Slots:           2,
		FreqsMHz:        []float64{1000},
		WorkPerSecAtTop: 1000, // 1 work unit per ms per slot
		ShareFactor:     1.0,  // no contention stretch: easy arithmetic
		IdleW:           0.25,
		InitialFreqIdx:  0,
	}
}

type fixture struct {
	eng *sim.Engine
	dev *accelhw.Device
	drv *Driver

	resident map[int]bool
	usage    []struct {
		owner      int
		start, end sim.Time
	}
}

func newFixture(t *testing.T, cfg accelhw.Config) *fixture {
	f := &fixture{eng: sim.NewEngine(), resident: map[int]bool{}}
	f.dev = accelhw.MustNew(f.eng, cfg)
	f.drv = New(f.eng, f.dev, fair.Callbacks{
		BoxResident: func(app int, r bool) { f.resident[app] = r },
		Usage: func(owner int, s, e sim.Time) {
			f.usage = append(f.usage, struct {
				owner      int
				start, end sim.Time
			}{owner, s, e})
		},
	})
	return f
}

func (f *fixture) submit(owner int, work float64) {
	f.drv.Submit(owner, &accelhw.Command{Kind: "k", Work: work, DynW: 0.5})
}

// feeder keeps an app's backlog topped up to depth, modelling a saturating
// workload.
func (f *fixture) feeder(owner int, work float64, depth int) {
	var top func(sim.Time)
	top = func(sim.Time) {
		for f.drv.Backlog(owner) < depth {
			f.submit(owner, work)
		}
		f.eng.After(500*sim.Microsecond, top)
	}
	top(0)
}

func TestSingleAppDispatchesImmediately(t *testing.T) {
	f := newFixture(t, devCfg())
	f.submit(1, 10)
	if f.dev.Busy() != 1 {
		t.Fatal("command not dispatched")
	}
	f.eng.RunFor(15 * sim.Millisecond)
	if f.drv.Completed(1) != 1 || f.drv.WorkDone(1) != 10 {
		t.Fatalf("completed=%d work=%v", f.drv.Completed(1), f.drv.WorkDone(1))
	}
	if f.drv.Backlog(1) != 0 {
		t.Fatal("backlog should be empty")
	}
}

func TestUnboxedAppsInterleave(t *testing.T) {
	// Without psbox the driver is work-conserving: two apps' commands
	// overlap on the device — the very entanglement of Fig. 3(b).
	f := newFixture(t, devCfg())
	f.submit(1, 50)
	f.submit(2, 50)
	if f.dev.Busy() != 2 {
		t.Fatalf("busy = %d, both apps should be in flight", f.dev.Busy())
	}
	owners := map[int]bool{}
	for _, c := range f.dev.InFlight() {
		owners[c.Owner] = true
	}
	if !owners[1] || !owners[2] {
		t.Fatal("both owners should be in flight")
	}
	f.eng.RunFor(sim.Duration(sim.Second))
}

func TestFairSharingByCredit(t *testing.T) {
	f := newFixture(t, devCfg())
	f.feeder(1, 10, 4)
	f.feeder(2, 10, 4)
	f.eng.RunFor(2 * sim.Second)
	w1, w2 := f.drv.WorkDone(1), f.drv.WorkDone(2)
	ratio := w1 / w2
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("work split %v vs %v", w1, w2)
	}
}

func TestBoxedAppNeverOverlapsOthers(t *testing.T) {
	f := newFixture(t, devCfg())
	f.drv.BoxEnter(1)
	f.feeder(1, 5, 3)
	f.feeder(2, 8, 3)
	f.feeder(3, 12, 3)
	overlap := 0
	var poll func(sim.Time)
	poll = func(sim.Time) {
		hasBox, hasOther := false, false
		for _, c := range f.dev.InFlight() {
			if c.Owner == 1 {
				hasBox = true
			} else {
				hasOther = true
			}
		}
		if hasBox && hasOther {
			overlap++
		}
		f.eng.After(100*sim.Microsecond, poll)
	}
	f.eng.After(100*sim.Microsecond, poll)
	f.eng.RunFor(2 * sim.Second)
	if overlap != 0 {
		t.Fatalf("boxed commands overlapped others at %d instants", overlap)
	}
	if f.drv.WorkDone(1) == 0 || f.drv.WorkDone(2) == 0 || f.drv.WorkDone(3) == 0 {
		t.Fatal("all apps should make progress")
	}
}

func TestResidencyBracketsBoxService(t *testing.T) {
	f := newFixture(t, devCfg())
	f.submit(2, 20) // other app's long command in flight
	f.drv.BoxEnter(1)
	f.submit(1, 5)
	// Balloon opens: drain-others first.
	if f.drv.Phase() != PhaseDrainOthers {
		t.Fatalf("phase = %v, want drain-others", f.drv.Phase())
	}
	if f.resident[1] {
		t.Fatal("resident before drain completed")
	}
	f.eng.RunFor(21 * sim.Millisecond) // other command (20ms) drains
	if !f.resident[1] && f.drv.Phase() != PhaseNone {
		t.Fatalf("after drain: phase=%v resident=%v", f.drv.Phase(), f.resident[1])
	}
	f.eng.RunFor(10 * sim.Millisecond)
	// Box command (5ms) done, box idle → balloon closed.
	if f.resident[1] {
		t.Fatal("residency should end when the box goes idle")
	}
	if f.drv.Completed(1) != 1 {
		t.Fatal("box command should have completed")
	}
}

func TestDrainBillsIdleSlotsToBox(t *testing.T) {
	f := newFixture(t, devCfg())
	f.submit(2, 20) // 20ms on one slot; the other slot idles during drain
	f.drv.BoxEnter(1)
	f.submit(1, 1)
	vrBefore := f.drv.VRuntime(1)
	f.eng.RunFor(25 * sim.Millisecond)
	// During the 20ms drain one slot was idle → ≥0.020 slot-seconds billed
	// to the box, plus whole-device billing while serving.
	gained := f.drv.VRuntime(1) - vrBefore
	if gained < 0.020 {
		t.Fatalf("box billed only %v slot-seconds", gained)
	}
}

func TestConfinementUnderExtremeContention(t *testing.T) {
	// §6.3 robustness: a light boxed app (browser) co-runs with a
	// saturating one (triangle). The boxed app's throughput collapses
	// (drain overhead) while the saturating app keeps nearly all of its
	// solo throughput.
	cfg := devCfg()
	run := func(boxed bool) (browser, triangle float64) {
		f := newFixture(t, cfg)
		if boxed {
			f.drv.BoxEnter(1)
		}
		// Browser: a short command every 3 ms (light).
		var tick func(sim.Time)
		tick = func(sim.Time) {
			if f.drv.Backlog(1) < 2 {
				f.submit(1, 1)
			}
			f.eng.After(3*sim.Millisecond, tick)
		}
		tick(0)
		// Triangle: long saturating commands.
		f.feeder(2, 30, 4)
		f.eng.RunFor(3 * sim.Second)
		return f.drv.WorkDone(1), f.drv.WorkDone(2)
	}
	b0, t0 := run(false)
	b1, t1 := run(true)
	if b1 >= b0 {
		t.Fatalf("boxed browser should lose throughput: %v → %v", b0, b1)
	}
	lossTriangle := 1 - t1/t0
	if lossTriangle > 0.05 {
		t.Fatalf("triangle lost %.1f%% — not confined", lossTriangle*100)
	}
}

func TestStateVirtualizationPerBox(t *testing.T) {
	cfg := devCfg()
	cfg.FreqsMHz = []float64{500, 1000}
	cfg.InitialFreqIdx = 0
	f := newFixture(t, cfg)
	f.drv.BoxEnter(1)
	// Others crank the device to the top operating point.
	f.dev.Restore(accelhw.FreqState{FreqIdx: 1})
	f.submit(2, 100)
	f.eng.RunFor(200 * sim.Millisecond)
	if f.dev.FreqIdx() != 1 {
		t.Fatal("setup: others should be at top frequency")
	}
	// The box's first service starts from its own virtual state (cold),
	// not the lingering one — eliminating Fig. 3(c) on the accelerator.
	f.submit(1, 1)
	if f.dev.FreqIdx() != 0 {
		t.Fatalf("device freq %d during box service, want the box's virtual 0", f.dev.FreqIdx())
	}
	f.eng.RunFor(10 * sim.Millisecond)
	// After the balloon closes, the shared state is restored.
	if f.dev.FreqIdx() != 1 {
		t.Fatalf("shared state not restored: freq %d", f.dev.FreqIdx())
	}
}

func TestDispatchLatencyGrowsWithBalloons(t *testing.T) {
	cfg := devCfg()
	run := func(boxed bool) sim.Duration {
		f := newFixture(t, cfg)
		if boxed {
			f.drv.BoxEnter(1)
		}
		var tick func(sim.Time)
		tick = func(sim.Time) {
			if f.drv.Backlog(1) < 2 {
				f.submit(1, 1)
			}
			f.eng.After(5*sim.Millisecond, tick)
		}
		tick(0)
		f.feeder(2, 15, 3)
		f.eng.RunFor(2 * sim.Second)
		return f.drv.MeanDispatchLatency(1)
	}
	unboxed, boxed := run(false), run(true)
	if boxed <= unboxed {
		t.Fatalf("boxed dispatch latency %v should exceed unboxed %v", boxed, unboxed)
	}
}

func TestBoxLeaveMidServiceRestoresSharing(t *testing.T) {
	f := newFixture(t, devCfg())
	f.drv.BoxEnter(1)
	f.submit(1, 50)
	if f.drv.Phase() != PhaseServe {
		t.Fatalf("phase = %v", f.drv.Phase())
	}
	f.eng.RunFor(5 * sim.Millisecond)
	f.drv.BoxLeave(1)
	if f.drv.Phase() != PhaseNone || f.resident[1] {
		t.Fatal("leave should tear down the balloon")
	}
	f.submit(2, 10)
	if f.dev.Busy() != 2 {
		t.Fatal("after leave, commands should interleave again")
	}
	f.eng.RunFor(sim.Duration(sim.Second))
}

func TestBoxLeaveDuringDrainOthers(t *testing.T) {
	f := newFixture(t, devCfg())
	f.submit(2, 20)
	f.drv.BoxEnter(1)
	f.submit(1, 5)
	if f.drv.Phase() != PhaseDrainOthers {
		t.Fatal("setup: want drain-others")
	}
	f.drv.BoxLeave(1)
	if f.drv.Phase() != PhaseNone {
		t.Fatal("leave should cancel the pending balloon")
	}
	if f.dev.Busy() != 2 {
		t.Fatal("the ex-box command should dispatch normally now")
	}
	f.eng.RunFor(sim.Duration(sim.Second))
}

func TestUsageCallbackSpans(t *testing.T) {
	f := newFixture(t, devCfg())
	f.submit(1, 10)
	f.eng.RunFor(15 * sim.Millisecond)
	if len(f.usage) != 1 {
		t.Fatalf("usage records = %d", len(f.usage))
	}
	u := f.usage[0]
	if u.owner != 1 || u.end.Sub(u.start) != 10*sim.Millisecond {
		t.Fatalf("usage = %+v", u)
	}
}

func TestBacklogChangeCallback(t *testing.T) {
	f := newFixture(t, devCfg())
	var changes []int
	f.drv.cbs.BacklogChange = func(app int) { changes = append(changes, app) }
	f.submit(1, 5)
	f.submit(1, 5)
	f.eng.RunFor(50 * sim.Millisecond)
	if len(changes) != 2 {
		t.Fatalf("backlog changes = %v", changes)
	}
}

func TestSubmitZeroWorkPanics(t *testing.T) {
	f := newFixture(t, devCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.submit(1, 0)
}

func TestNewcomerGetsNoCreditHoard(t *testing.T) {
	f := newFixture(t, devCfg())
	f.feeder(1, 10, 4)
	f.eng.RunFor(1 * sim.Second)
	// App 2 arrives late; it must not starve app 1 by replaying the past.
	f.feeder(2, 10, 4)
	base1 := f.drv.WorkDone(1)
	f.eng.RunFor(1 * sim.Second)
	gained1 := f.drv.WorkDone(1) - base1
	gained2 := f.drv.WorkDone(2)
	ratio := gained2 / gained1
	if ratio > 1.3 {
		t.Fatalf("latecomer got %.2f× the incumbent's share", ratio)
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseNone.String() != "none" || PhaseDrainOthers.String() != "drain-others" ||
		PhaseServe.String() != "serve" || PhaseDrainBox.String() != "drain-box" ||
		Phase(9).String() != "phase(9)" {
		t.Fatal("phase strings wrong")
	}
}
