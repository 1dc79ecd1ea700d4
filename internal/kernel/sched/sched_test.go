package sched

import (
	"testing"

	"psbox/internal/sim"
)

// harness drives the scheduler the way the kernel's execution engine does:
// it gives each task a behavior (run for a burst, then sleep) and converts
// Run/Stop callbacks into timed Block/Wake calls.
type harness struct {
	t   *testing.T
	eng *sim.Engine
	s   *Scheduler

	behaviors map[*Task]*behavior
	onCore    map[int]*Task
	idleSince map[int]sim.Time
	idleTotal map[int]sim.Duration
	resident  map[int]bool // appID → resident
}

type behavior struct {
	burst sim.Duration // full burst length; 0 ⇒ run forever (CPU hog)
	sleep sim.Duration

	remaining sim.Duration
	blockArm  sim.Handle
	runSince  sim.Time
}

func newHarness(t *testing.T, cores int) *harness {
	h := &harness{
		t:         t,
		eng:       sim.NewEngine(),
		behaviors: make(map[*Task]*behavior),
		onCore:    make(map[int]*Task),
		idleSince: make(map[int]sim.Time),
		idleTotal: make(map[int]sim.Duration),
		resident:  make(map[int]bool),
	}
	cbs := Callbacks{
		RunTask:       h.runTask,
		StopTask:      h.stopTask,
		CoreIdle:      h.coreIdle,
		GroupResident: func(app int, r bool) { h.resident[app] = r },
	}
	h.s = New(h.eng, cores, cbs)
	return h
}

func (h *harness) runTask(core int, t *Task) {
	if prev, ok := h.onCore[core]; ok && prev != nil {
		h.t.Fatalf("core %d: RunTask(%s) while %s still on", core, t.Name, prev.Name)
	}
	h.onCore[core] = t
	if since, ok := h.idleSince[core]; ok {
		h.idleTotal[core] += h.eng.Now().Sub(since)
		delete(h.idleSince, core)
	}
	b := h.behaviors[t]
	if b == nil {
		return
	}
	b.runSince = h.eng.Now()
	if b.burst == 0 {
		return // hog: never blocks
	}
	if b.remaining == 0 {
		b.remaining = b.burst
	}
	tt := t
	b.blockArm = h.eng.After(b.remaining, func(sim.Time) {
		b.blockArm = sim.Handle{}
		b.remaining = 0
		h.s.Block(tt)
		h.eng.After(b.sleep, func(sim.Time) { h.s.Wake(tt) })
	})
}

func (h *harness) stopTask(core int, t *Task) {
	if h.onCore[core] != t {
		h.t.Fatalf("core %d: StopTask(%s) but %v is on", core, t.Name, h.onCore[core])
	}
	h.onCore[core] = nil
	h.idleSince[core] = h.eng.Now()
	b := h.behaviors[t]
	if b == nil || b.burst == 0 {
		return
	}
	if b.blockArm != (sim.Handle{}) {
		h.eng.Cancel(b.blockArm)
		b.blockArm = sim.Handle{}
		b.remaining -= h.eng.Now().Sub(b.runSince)
		if b.remaining < 0 {
			b.remaining = 0
		}
	}
}

func (h *harness) coreIdle(core int) {
	if cur := h.onCore[core]; cur != nil {
		h.t.Fatalf("core %d: CoreIdle while %s on", core, cur.Name)
	}
	if _, ok := h.idleSince[core]; !ok {
		h.idleSince[core] = h.eng.Now()
	}
}

// hog creates an always-runnable task.
func (h *harness) hog(app int, name string, core int, weight int64) *Task {
	t := h.s.NewTask(app, name, core, weight)
	h.behaviors[t] = &behavior{}
	h.s.Wake(t)
	return t
}

// periodic creates a task running burst then sleeping.
func (h *harness) periodic(app int, name string, core int, burst, sleep sim.Duration) *Task {
	t := h.s.NewTask(app, name, core, 0)
	h.behaviors[t] = &behavior{burst: burst, sleep: sleep}
	h.s.Wake(t)
	return t
}

func shareOf(t *Task, span sim.Duration) float64 {
	return float64(t.CPUTime()) / float64(span)
}

func TestSingleTaskRunsImmediately(t *testing.T) {
	h := newHarness(t, 1)
	tk := h.hog(1, "solo", 0, 0)
	h.eng.RunFor(100 * sim.Millisecond)
	if got := shareOf(tk, 100*sim.Millisecond); got < 0.999 {
		t.Fatalf("solo share = %v", got)
	}
	if tk.State() != StateRunning {
		t.Fatalf("state = %v", tk.State())
	}
}

func TestTwoHogsShareFairly(t *testing.T) {
	h := newHarness(t, 1)
	a := h.hog(1, "a", 0, 0)
	b := h.hog(2, "b", 0, 0)
	h.eng.RunFor(1 * sim.Second)
	sa, sb := shareOf(a, sim.Second), shareOf(b, sim.Second)
	if sa < 0.45 || sa > 0.55 || sb < 0.45 || sb > 0.55 {
		t.Fatalf("shares: a=%v b=%v", sa, sb)
	}
}

func TestWeightedSharing(t *testing.T) {
	h := newHarness(t, 1)
	a := h.hog(1, "heavy", 0, 2*DefaultWeight)
	b := h.hog(2, "light", 0, DefaultWeight)
	h.eng.RunFor(3 * sim.Second)
	ratio := float64(a.CPUTime()) / float64(b.CPUTime())
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("weighted ratio = %v, want ≈2", ratio)
	}
}

func TestThreeHogsShareFairly(t *testing.T) {
	h := newHarness(t, 1)
	tasks := []*Task{
		h.hog(1, "a", 0, 0),
		h.hog(2, "b", 0, 0),
		h.hog(3, "c", 0, 0),
	}
	h.eng.RunFor(3 * sim.Second)
	for _, tk := range tasks {
		s := shareOf(tk, 3*sim.Second)
		if s < 0.30 || s > 0.37 {
			t.Fatalf("%s share = %v", tk.Name, s)
		}
	}
}

func TestCoresAreIndependent(t *testing.T) {
	h := newHarness(t, 2)
	a := h.hog(1, "a", 0, 0)
	b := h.hog(2, "b", 1, 0)
	h.eng.RunFor(500 * sim.Millisecond)
	if shareOf(a, 500*sim.Millisecond) < 0.999 || shareOf(b, 500*sim.Millisecond) < 0.999 {
		t.Fatal("each core should run its own hog full-time")
	}
}

func TestPeriodicTaskPreemptsHog(t *testing.T) {
	h := newHarness(t, 1)
	hog := h.hog(1, "hog", 0, 0)
	p := h.periodic(2, "periodic", 0, 2*sim.Millisecond, 8*sim.Millisecond)
	h.eng.RunFor(1 * sim.Second)
	// The periodic task demands 20%; it should get close to that, and the
	// hog should absorb the rest.
	sp := shareOf(p, sim.Second)
	if sp < 0.17 || sp > 0.22 {
		t.Fatalf("periodic share = %v want ≈0.2", sp)
	}
	if sh := shareOf(hog, sim.Second); sh < 0.75 {
		t.Fatalf("hog share = %v", sh)
	}
}

func TestWakeupLatencyIsBounded(t *testing.T) {
	h := newHarness(t, 1)
	h.hog(1, "hog", 0, 0)
	h.periodic(2, "p", 0, 1*sim.Millisecond, 9*sim.Millisecond)
	h.eng.RunFor(1 * sim.Second)
	lat := h.s.MeanWakeupLatency()
	if lat > 3*sim.Millisecond {
		t.Fatalf("mean wakeup latency = %v", lat)
	}
	if lat == 0 {
		t.Fatal("no wakeup latency recorded")
	}
}

func TestBlockWakeLifecyclePanics(t *testing.T) {
	h := newHarness(t, 1)
	tk := h.s.NewTask(1, "x", 0, 0)
	// Waking a blocked task is fine; double wake must panic.
	h.s.Wake(tk)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double wake should panic")
			}
		}()
		h.s.Wake(tk)
	}()
	h.s.Block(tk)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double block should panic")
			}
		}()
		h.s.Block(tk)
	}()
	h.s.Exit(tk)
	if tk.State() != StateDead {
		t.Fatal("exit should kill")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("waking the dead should panic")
			}
		}()
		h.s.Wake(tk)
	}()
}

func TestExitRunningTask(t *testing.T) {
	h := newHarness(t, 1)
	a := h.hog(1, "a", 0, 0)
	b := h.hog(2, "b", 0, 0)
	h.eng.RunFor(100 * sim.Millisecond)
	h.s.Exit(a)
	at := a.CPUTime()
	h.eng.RunFor(100 * sim.Millisecond)
	if a.CPUTime() != at {
		t.Fatal("dead task accumulated CPU time")
	}
	if shareOf(b, 200*sim.Millisecond) < 0.70 {
		t.Fatalf("survivor share = %v", shareOf(b, 200*sim.Millisecond))
	}
}

func TestStateStrings(t *testing.T) {
	if StateBlocked.String() != "blocked" || StateRunnable.String() != "runnable" ||
		StateRunning.String() != "running" || StateDead.String() != "dead" ||
		State(9).String() != "state(9)" {
		t.Fatal("state strings wrong")
	}
}
