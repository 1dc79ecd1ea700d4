package sandbox_test

import (
	"bytes"
	"errors"
	"testing"

	"psbox"
	"psbox/internal/sandbox"
)

// hogSpec is a budget hog: spins the CPU but declares a tiny budget.
func hogSpec(name string) sandbox.Spec {
	return sandbox.Spec{
		Name:    name,
		BudgetW: 0.3,
		Start: func(app *psbox.App) {
			app.Spawn("spin", 0, psbox.Loop(psbox.Compute{Cycles: 5e5}))
		},
	}
}

// steadySpec is a well-behaved periodic workload with ample budget.
func steadySpec(name string) sandbox.Spec {
	return sandbox.Spec{
		Name:    name,
		BudgetW: 2.0,
		Start: func(app *psbox.App) {
			app.Spawn("work", 0, psbox.Loop(
				psbox.Compute{Cycles: 3e5},
				psbox.Sleep{D: 9 * psbox.Millisecond},
			))
		},
	}
}

func TestAdmissionControl(t *testing.T) {
	sys := psbox.NewAM57(1)
	mgr := sys.Sandboxes()
	mgr.SetConfig(sandbox.DefaultConfig(3))

	if _, err := mgr.Launch(steadySpec("a")); err != nil {
		t.Fatalf("launch a: %v", err)
	}
	if got := mgr.Headroom(); got != 1.0 {
		t.Fatalf("headroom = %v, want 1.0", got)
	}
	_, err := mgr.Launch(steadySpec("b")) // needs 2 W, only 1 W left
	var adm *sandbox.AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("over-capacity launch error = %v, want *AdmissionError", err)
	}
	if adm.Name != "b" || adm.Headroom != 1.0 {
		t.Fatalf("admission error = %+v", adm)
	}
	// Duplicate live name is rejected too.
	if _, err := mgr.Launch(sandbox.Spec{Name: "a", BudgetW: 0.1,
		Start: func(*psbox.App) {}}); err == nil {
		t.Fatal("duplicate live name admitted")
	}
	if st := mgr.Stats(); st.Admitted != 1 || st.Rejected != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHogThrottledThenKilledThenRestarted(t *testing.T) {
	sys := psbox.NewAM57(2)
	mgr := sys.Sandboxes()
	mgr.SetConfig(sandbox.DefaultConfig(6))

	hog, err := mgr.Launch(hogSpec("hog"))
	if err != nil {
		t.Fatal(err)
	}
	steady, err := mgr.Launch(steadySpec("steady"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2 * psbox.Second)

	if hog.Throttles() == 0 {
		t.Fatal("hog never throttled")
	}
	if hog.Kills() == 0 {
		t.Fatal("hog never killed")
	}
	if hog.Restarts() == 0 {
		t.Fatal("hog never restarted")
	}
	if steady.Throttles() != 0 || steady.Kills() != 0 {
		t.Fatalf("steady session punished: %d throttles %d kills",
			steady.Throttles(), steady.Kills())
	}
	if st := mgr.Stats(); st.ReclaimedJ <= 0 {
		t.Fatalf("no energy reclaimed from throttling: %+v", st)
	}
}

func TestCrashLoopQuarantinedByBreaker(t *testing.T) {
	sys := psbox.NewAM57(3)
	mgr := sys.Sandboxes()
	mgr.SetConfig(sandbox.DefaultConfig(6))

	s, err := mgr.Launch(steadySpec("crashy"))
	if err != nil {
		t.Fatal(err)
	}
	// Three crashes inside the 500 ms breaker window. Restarts happen with
	// 10/20 ms backoff, so each subsequent crash finds a live session.
	sys.Faults.CrashSessionAt(psbox.Time(50*psbox.Millisecond), "crashy")
	sys.Faults.CrashSessionAt(psbox.Time(150*psbox.Millisecond), "crashy")
	sys.Faults.CrashSessionAt(psbox.Time(250*psbox.Millisecond), "crashy")
	sys.Run(1 * psbox.Second)

	if s.State() != sandbox.StateQuarantined {
		t.Fatalf("state = %v, want quarantined", s.State())
	}
	if s.Restarts() != 2 {
		t.Fatalf("restarts = %d, want 2 (third failure trips the breaker)", s.Restarts())
	}
	if got := mgr.Headroom(); got != 6.0 {
		t.Fatalf("headroom = %v, want full capacity released", got)
	}
	if len(sys.Faults.Log()) != 3 {
		t.Fatalf("fault log has %d events, want 3", len(sys.Faults.Log()))
	}
}

func TestSlowCrashesStayBelowBreaker(t *testing.T) {
	sys := psbox.NewAM57(4)
	mgr := sys.Sandboxes()
	mgr.SetConfig(sandbox.DefaultConfig(6))

	s, err := mgr.Launch(steadySpec("flaky"))
	if err != nil {
		t.Fatal(err)
	}
	// Crashes 700 ms apart: each falls outside the 500 ms breaker window
	// of its predecessor, so the session keeps getting restarted.
	sys.Faults.CrashSessionAt(psbox.Time(100*psbox.Millisecond), "flaky")
	sys.Faults.CrashSessionAt(psbox.Time(800*psbox.Millisecond), "flaky")
	sys.Faults.CrashSessionAt(psbox.Time(1500*psbox.Millisecond), "flaky")
	sys.Run(2 * psbox.Second)

	if s.State() == sandbox.StateQuarantined {
		t.Fatal("breaker tripped on crashes outside its window")
	}
	if s.Restarts() != 3 {
		t.Fatalf("restarts = %d, want 3", s.Restarts())
	}
}

func TestPreserveDataResumesAcrossRestart(t *testing.T) {
	sys := psbox.NewAM57(5)
	mgr := sys.Sandboxes()
	mgr.SetConfig(sandbox.DefaultConfig(6))

	spec := sandbox.Spec{
		Name:         "counter",
		BudgetW:      2.0,
		PreserveData: true,
		Start: func(app *psbox.App) {
			app.Spawn("work", 0, psbox.ProgramFunc(func(env *psbox.Env) psbox.Action {
				env.Count("iters", 1)
				return psbox.Sleep{D: 5 * psbox.Millisecond}
			}))
		},
	}
	s, err := mgr.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(200 * psbox.Millisecond)
	before := s.App().Counter("iters")
	if before < 10 {
		t.Fatalf("only %v iters before crash", before)
	}
	sys.Faults.CrashSessionAt(sys.Now().Add(psbox.Millisecond), "counter")
	sys.Run(100 * psbox.Millisecond)

	if s.Restarts() != 1 {
		t.Fatalf("restarts = %d", s.Restarts())
	}
	after := s.App().Counter("iters")
	if after <= before {
		t.Fatalf("restarted incarnation did not resume: %v iters after, %v before",
			after, before)
	}
	// Without PreserveData the new incarnation replays from zero iters and
	// cannot have passed `before` in 100 ms minus backoff.
	if after > before+25 {
		t.Fatalf("implausible iter count %v (before %v): replay instead of resume?",
			after, before)
	}
}

func TestSessionRetiresOnExit(t *testing.T) {
	sys := psbox.NewAM57(6)
	mgr := sys.Sandboxes()
	mgr.SetConfig(sandbox.DefaultConfig(6))

	s, err := mgr.Launch(sandbox.Spec{
		Name:    "oneshot",
		BudgetW: 1.0,
		Start: func(app *psbox.App) {
			app.Spawn("work", 0, psbox.Sequence(
				psbox.Compute{Cycles: 1e5},
				psbox.Sleep{D: 10 * psbox.Millisecond},
			))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(500 * psbox.Millisecond)
	if s.State() != sandbox.StateRetired {
		t.Fatalf("state = %v, want retired", s.State())
	}
	if got := mgr.Headroom(); got != 6.0 {
		t.Fatalf("headroom = %v, want budget released", got)
	}
	if st := mgr.Stats(); st.Retired != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLeakerKilledOnBacklogBound(t *testing.T) {
	sys := psbox.NewAM57(7)
	mgr := sys.Sandboxes()
	mgr.SetConfig(sandbox.DefaultConfig(6))

	s, err := mgr.Launch(sandbox.Spec{
		Name:       "leaker",
		BudgetW:    3.0,
		MaxBacklog: 8,
		Start: func(app *psbox.App) {
			// Submits GPU work far faster than the device completes it and
			// never awaits: the backlog grows without bound.
			app.Spawn("leak", 0, psbox.Loop(
				psbox.SubmitAccel{Dev: "gpu", Kind: "leak", Work: 5e5, DynW: 0.5},
				psbox.Sleep{D: psbox.Millisecond},
			))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2 * psbox.Second)
	if s.Kills() == 0 {
		t.Fatal("leaker never killed")
	}
}

// TestSnapshotDeterminism: two identically-driven systems produce
// byte-identical checkpoints including the sandbox section.
func TestSnapshotDeterminism(t *testing.T) {
	build := func() *psbox.System {
		sys := psbox.NewAM57(8)
		mgr := sys.Sandboxes()
		mgr.SetConfig(sandbox.DefaultConfig(6))
		if _, err := mgr.Launch(hogSpec("hog")); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Launch(steadySpec("steady")); err != nil {
			t.Fatal(err)
		}
		sys.Faults.CrashSessionAt(psbox.Time(300*psbox.Millisecond), "steady")
		return sys
	}
	a, b := build(), build()
	a.Run(1 * psbox.Second)
	b.Run(1 * psbox.Second)
	ca, cb := a.Snapshot(), b.Snapshot()
	if !bytes.Equal(ca, cb) {
		t.Fatalf("twin checkpoints differ: %d vs %d bytes", len(ca), len(cb))
	}
	if err := a.Restore(cb); err != nil {
		t.Fatalf("restore-verify: %v", err)
	}
}

// TestThrottleConfinesPower: once throttled, the hog gets about the
// throttle duty of the CPU time it takes unthrottled. The ladder throttles
// the hog at the end of its second over-budget window (50 ms) and kills it
// at the end of its third throttled one (125 ms); the comparison covers
// the throttled windows before the kill, against the same hog declared
// with a budget it never exceeds.
func TestThrottleConfinesPower(t *testing.T) {
	run := func(budget float64) (cpuNs float64, throttles uint64) {
		sys := psbox.NewAM57(9)
		mgr := sys.Sandboxes()
		mgr.SetConfig(sandbox.DefaultConfig(6))
		spec := hogSpec("hog")
		spec.BudgetW = budget
		s, err := mgr.Launch(spec)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(50 * psbox.Millisecond)
		before := s.App().CPUTime()
		sys.Run(70 * psbox.Millisecond)
		if s.Kills() != 0 {
			t.Fatalf("budget %v W: hog killed before 120 ms", budget)
		}
		return float64(s.App().CPUTime() - before), s.Throttles()
	}
	throttled, n := run(0.3)
	free, m := run(5.9)
	if n != 1 || m != 0 {
		t.Fatalf("throttles = %d at 0.3 W and %d at 5.9 W, want 1 and 0", n, m)
	}
	if throttled > free*0.5 {
		t.Fatalf("throttling barely bit: %v vs %v CPU ns", throttled, free)
	}
}
