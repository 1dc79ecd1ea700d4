package kernel

import (
	"math"
	"testing"

	"psbox/internal/hw/accelhw"
	"psbox/internal/hw/cpu"
	"psbox/internal/hw/nic"
	"psbox/internal/kernel/accel"
	"psbox/internal/kernel/fair"
	"psbox/internal/kernel/netsched"
	"psbox/internal/sim"
)

// testSystem assembles a minimal platform: 2-core CPU (pinned frequency
// unless stated), GPU-like accelerator, and a NIC.
type testSystem struct {
	eng *sim.Engine
	cpu *cpu.CPU
	k   *Kernel
	gpu *accel.Driver
	net *netsched.Driver
}

func newTestSystem(t *testing.T, governor bool) *testSystem {
	eng := sim.NewEngine()
	ccfg := cpu.DefaultConfig()
	if !governor {
		ccfg.GovernorWindow = 0
		ccfg.InitialFreqIdx = 3
	}
	c := cpu.MustNew(eng, ccfg)
	k := New(eng, Config{CPU: c, Seed: 42})
	dev := accelhw.MustNew(eng, accelhw.Config{
		Name: "gpu", Slots: 2, FreqsMHz: []float64{450},
		WorkPerSecAtTop: 1e6, ShareFactor: 0.9, IdleW: 0.25,
	})
	gpu := accel.New(eng, dev, fair.Callbacks{})
	k.AttachAccel("gpu", gpu)
	n := nic.MustNew(eng, nic.DefaultConfig())
	nd := netsched.New(eng, n, fair.Callbacks{})
	k.AttachNet(nd)
	return &testSystem{eng: eng, cpu: c, k: k, gpu: gpu, net: nd}
}

func TestComputeConsumesTimeAtFrequency(t *testing.T) {
	s := newTestSystem(t, false) // pinned at 1500 MHz
	app := s.k.NewApp("a")
	var done sim.Time
	app.Spawn("t", 0, ProgramFunc(func(env *Env) Action {
		if done != 0 {
			return Exit{}
		}
		done = -1
		return Compute{Cycles: 15e6} // 10ms at 1.5 GHz
	}))
	prog := ProgramFunc(nil)
	_ = prog
	s.eng.RunFor(50 * sim.Millisecond)
	if got := app.CPUTime(); got < 9900*sim.Microsecond || got > 10100*sim.Microsecond {
		t.Fatalf("cpu time = %v, want ≈10ms", got)
	}
}

func TestFrequencyChangeStretchesCompute(t *testing.T) {
	s := newTestSystem(t, false)
	app := s.k.NewApp("a")
	issued := false
	app.Spawn("t", 0, ProgramFunc(func(env *Env) Action {
		if issued {
			return Exit{}
		}
		issued = true
		return Compute{Cycles: 15e6}
	}))
	// Halfway through, drop to 600 MHz: the remaining 7.5e6 cycles take
	// 12.5ms, so completion lands at t=17.5ms.
	s.eng.RunFor(5 * sim.Millisecond)
	s.cpu.SetFreqIdx(0)
	s.eng.RunFor(12 * sim.Millisecond)
	if app.Tasks()[0].Dead() {
		t.Fatal("finished early despite the slower clock")
	}
	s.eng.RunFor(1 * sim.Millisecond)
	if !app.Tasks()[0].Dead() {
		t.Fatal("should have finished by 18ms")
	}
}

func TestSleepWakesExactly(t *testing.T) {
	s := newTestSystem(t, false)
	app := s.k.NewApp("a")
	var phases []sim.Time
	app.Spawn("t", 0, ProgramFunc(func(env *Env) Action {
		phases = append(phases, env.Now())
		switch len(phases) {
		case 1:
			return Sleep{D: 10 * sim.Millisecond}
		case 2:
			return Exit{}
		}
		return Exit{}
	}))
	s.eng.RunFor(50 * sim.Millisecond)
	if len(phases) != 2 {
		t.Fatalf("phases = %v", phases)
	}
	if got := phases[1].Sub(phases[0]); got != 10*sim.Millisecond {
		t.Fatalf("slept %v", got)
	}
}

func TestAccelSubmitAndAwait(t *testing.T) {
	s := newTestSystem(t, false)
	app := s.k.NewApp("a")
	step := 0
	var doneAt sim.Time
	app.Spawn("t", 0, ProgramFunc(func(env *Env) Action {
		step++
		switch step {
		case 1:
			return SubmitAccel{Dev: "gpu", Kind: "draw", Work: 10000, DynW: 0.5} // 10ms
		case 2:
			return AwaitAccel{Dev: "gpu", MaxBacklog: 0}
		case 3:
			doneAt = env.Now()
			return Exit{}
		}
		return Exit{}
	}))
	s.eng.RunFor(50 * sim.Millisecond)
	if s.gpu.Completed(app.ID) != 1 {
		t.Fatal("command not completed")
	}
	if doneAt < sim.Time(10*sim.Millisecond) {
		t.Fatalf("await returned at %v, before completion", doneAt)
	}
	if doneAt > sim.Time(11*sim.Millisecond) {
		t.Fatalf("await returned late: %v", doneAt)
	}
}

func TestNetSendAndAwait(t *testing.T) {
	s := newTestSystem(t, false)
	app := s.k.NewApp("a")
	sock := app.OpenSocket()
	step := 0
	app.Spawn("t", 0, ProgramFunc(func(env *Env) Action {
		step++
		switch step {
		case 1:
			return Send{Socket: sock, Bytes: 25000} // 10ms airtime
		case 2:
			return AwaitNet{MaxBacklog: 0}
		case 3:
			env.Count("transfers", 1)
			return Exit{}
		}
		return Exit{}
	}))
	s.eng.RunFor(100 * sim.Millisecond)
	if s.net.SentBytes(app.ID) != 25000 {
		t.Fatalf("sent = %d", s.net.SentBytes(app.ID))
	}
	if app.Counter("transfers") != 1 {
		t.Fatal("await never returned")
	}
}

func TestGovernorRampsUnderComputeLoad(t *testing.T) {
	s := newTestSystem(t, true) // governor active, starts at 600 MHz
	app := s.k.NewApp("a")
	app.Spawn("hog0", 0, Loop(Compute{Cycles: 1e6}))
	app.Spawn("hog1", 1, Loop(Compute{Cycles: 1e6}))
	s.eng.RunFor(300 * sim.Millisecond)
	if s.cpu.FreqIdx() != s.cpu.TopFreqIdx() {
		t.Fatalf("freq idx = %d after sustained load", s.cpu.FreqIdx())
	}
}

func TestCountersAndRand(t *testing.T) {
	s := newTestSystem(t, false)
	app := s.k.NewApp("a")
	app.Spawn("t", 0, ProgramFunc(func(env *Env) Action {
		if app.Counter("iters") >= 5 {
			return Exit{}
		}
		env.Count("iters", 1)
		return Compute{Cycles: float64(env.Rand.Jitter(1e6, 0.2))}
	}))
	s.eng.RunFor(100 * sim.Millisecond)
	if app.Counter("iters") != 5 {
		t.Fatalf("iters = %v", app.Counter("iters"))
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (sim.Duration, float64) {
		s := newTestSystem(t, true)
		a := s.k.NewApp("a")
		b := s.k.NewApp("b")
		a.Spawn("t", 0, Loop(Compute{Cycles: 2e6}, Sleep{D: 1 * sim.Millisecond}))
		b.Spawn("t", 0, Loop(Compute{Cycles: 5e6}))
		s.eng.RunFor(500 * sim.Millisecond)
		return a.CPUTime(), s.cpu.Rail().EnergyBetween(0, s.eng.Now())
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", t1, e1, t2, e2)
	}
}

func TestLivelockedProgramPanics(t *testing.T) {
	s := newTestSystem(t, false)
	app := s.k.NewApp("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected livelock panic")
		}
	}()
	app.Spawn("bad", 0, ProgramFunc(func(env *Env) Action {
		return Send{Socket: -99, Bytes: 1} // would panic anyway, use sleep0
	}))
	// A program that never computes nor blocks:
	app2 := s.k.NewApp("b")
	sock := app2.OpenSocket()
	app2.Spawn("livelock", 0, ProgramFunc(func(env *Env) Action {
		return Send{Socket: sock, Bytes: 1}
	}))
	s.eng.RunFor(10 * sim.Millisecond)
}

func TestKillStopsTask(t *testing.T) {
	s := newTestSystem(t, false)
	app := s.k.NewApp("a")
	tk := app.Spawn("t", 0, Loop(Compute{Cycles: 1e6}))
	s.eng.RunFor(10 * sim.Millisecond)
	s.k.Kill(tk)
	base := tk.CPUTime()
	s.eng.RunFor(10 * sim.Millisecond)
	if tk.CPUTime() != base || !tk.Dead() {
		t.Fatal("killed task kept running")
	}
	s.k.Kill(tk) // idempotent
}

func TestCPUUsageRecorderSeesAllBusyTime(t *testing.T) {
	s := newTestSystem(t, false)
	var recorded sim.Duration
	s.k.SetUsageRecorder("cpu", func(owner int, start, end sim.Time) {
		recorded += end.Sub(start)
	}, nil)
	app := s.k.NewApp("a")
	app.Spawn("t", 0, Loop(Compute{Cycles: 1.5e6}, Sleep{D: 1 * sim.Millisecond}))
	s.eng.RunFor(100 * sim.Millisecond)
	busy := app.CPUTime()
	if math.Abs(float64(recorded-busy)) > float64(sim.Millisecond) {
		t.Fatalf("recorded %v vs cpu time %v", recorded, busy)
	}
}

func TestTwoAppsShareCoreViaPrograms(t *testing.T) {
	s := newTestSystem(t, false)
	a := s.k.NewApp("a")
	b := s.k.NewApp("b")
	a.Spawn("t", 0, Loop(Compute{Cycles: 1e6}))
	b.Spawn("t", 0, Loop(Compute{Cycles: 1e6}))
	s.eng.RunFor(1 * sim.Second)
	ra := a.CPUTime().Seconds()
	rb := b.CPUTime().Seconds()
	if ra < 0.45 || ra > 0.55 || rb < 0.45 || rb > 0.55 {
		t.Fatalf("shares %v/%v", ra, rb)
	}
}

func TestAppValidation(t *testing.T) {
	s := newTestSystem(t, false)
	app := s.k.NewApp("a")
	if s.k.App(app.ID) != app {
		t.Fatal("App lookup failed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown app should panic")
			}
		}()
		s.k.App(999)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown accel should panic")
			}
		}()
		s.k.Accel("npu")
	}()
}

func TestAppDemandAccounting(t *testing.T) {
	s := newTestSystem(t, false)
	app := s.k.NewApp("a")
	// Busy 2ms, sleep 8ms: demand ≈ busy time only (no contention).
	app.Spawn("t", 0, Loop(Compute{Cycles: 3e6}, Sleep{D: 8 * sim.Millisecond}))
	s.eng.RunFor(1 * sim.Second)
	demand := app.TotalDemand().Seconds()
	busy := app.CPUTime().Seconds()
	if demand < busy-0.01 || demand > busy+0.05 {
		t.Fatalf("uncontended demand %v should track busy %v", demand, busy)
	}
	// A pair of hogs on one core: each is always runnable (demand = wall
	// time) but executes only half of it.
	hogA := s.k.NewApp("hogA")
	ta := hogA.Spawn("h", 1, Loop(Compute{Cycles: 1e6}))
	hogB := s.k.NewApp("hogB")
	hogB.Spawn("h", 1, Loop(Compute{Cycles: 1e6}))
	s.eng.RunFor(1 * sim.Second)
	if d := hogA.TotalDemand().Seconds(); d < 0.99 {
		t.Fatalf("hog demand %v should be the full second", d)
	}
	if b := ta.CPUTime().Seconds(); b < 0.45 || b > 0.55 {
		t.Fatalf("hog busy %v should be about half", b)
	}
}

func TestAttachmentValidation(t *testing.T) {
	s := newTestSystem(t, false)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate accel should panic")
			}
		}()
		s.k.AttachAccel("gpu", s.gpu)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate NIC should panic")
			}
		}()
		s.k.AttachNet(s.net)
	}()
	if !s.k.HasAccel("gpu") || s.k.HasAccel("npu") {
		t.Fatal("HasAccel wrong")
	}
	if len(s.k.AccelNames()) != 1 {
		t.Fatal("AccelNames wrong")
	}
	if s.k.Engine() != s.eng || s.k.CPU() != s.cpu || s.k.Scheduler() == nil {
		t.Fatal("accessors wrong")
	}
}

func TestOpenSocketWithoutNICPanics(t *testing.T) {
	eng := sim.NewEngine()
	ccfg := cpu.DefaultConfig()
	k := New(eng, Config{CPU: cpu.MustNew(eng, ccfg), Seed: 1})
	app := k.NewApp("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	app.OpenSocket()
}

func TestAppsListedInOrder(t *testing.T) {
	s := newTestSystem(t, false)
	a := s.k.NewApp("first")
	b := s.k.NewApp("second")
	apps := s.k.Apps()
	if len(apps) != 2 || apps[0] != a || apps[1] != b {
		t.Fatalf("apps = %v", apps)
	}
}
