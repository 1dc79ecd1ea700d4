package psbox_test

import (
	"math"
	"testing"
	"testing/quick"

	psbox "psbox"
	"psbox/internal/account"
	"psbox/internal/workload"
)

func TestAM57PlatformShape(t *testing.T) {
	sys := psbox.NewAM57(1)
	if got := sys.Kernel.CPU().Cores(); got != 2 {
		t.Fatalf("cores = %d", got)
	}
	for _, rail := range []string{"cpu", "gpu", "dsp"} {
		if !sys.Meter.HasRail(rail) {
			t.Fatalf("missing rail %s", rail)
		}
		if _, ok := sys.Recorders[rail]; !ok {
			t.Fatalf("missing recorder %s", rail)
		}
	}
	if sys.Meter.HasRail("wifi") {
		t.Fatal("AM57 should not have WiFi")
	}
	if sys.Kernel.Net() != nil {
		t.Fatal("AM57 should not have a packet scheduler")
	}
	names := sys.Kernel.AccelNames()
	if len(names) != 2 || names[0] != "dsp" || names[1] != "gpu" {
		t.Fatalf("accels = %v", names)
	}
}

func TestBeagleBonePlatformShape(t *testing.T) {
	sys := psbox.NewBeagleBone(1)
	if got := sys.Kernel.CPU().Cores(); got != 1 {
		t.Fatalf("cores = %d", got)
	}
	if !sys.Meter.HasRail("wifi") || sys.Kernel.Net() == nil {
		t.Fatal("BeagleBone needs WiFi")
	}
	if len(sys.Kernel.AccelNames()) != 0 {
		t.Fatal("BeagleBone has no accelerators")
	}
}

func TestMobilePlatformShape(t *testing.T) {
	sys := psbox.NewMobile(1)
	for _, rail := range []string{"cpu", "gpu", "dsp", "wifi", "display", "gps", "dram"} {
		if !sys.Meter.HasRail(rail) {
			t.Fatalf("missing rail %s", rail)
		}
	}
	if sys.Kernel.Display() == nil || sys.Kernel.GPS() == nil || sys.Kernel.DRAM() == nil {
		t.Fatal("extension devices missing")
	}
}

func TestRunAdvancesClock(t *testing.T) {
	sys := psbox.NewAM57(1)
	sys.Run(123 * psbox.Millisecond)
	if sys.Now() != psbox.Time(123*psbox.Millisecond) {
		t.Fatalf("now = %v", sys.Now())
	}
}

func TestWholeSystemDeterminism(t *testing.T) {
	run := func() (float64, float64, float64) {
		sys := psbox.NewAM57(77)
		victim := workload.Install(sys.Kernel, workload.Calib3D(2, false))
		workload.Install(sys.Kernel, workload.Bodytrack(2, false))
		workload.Install(sys.Kernel, workload.Magic(2, false))
		box := sys.Sandbox.MustCreate(victim, psbox.HWCPU)
		box.Enter()
		sys.Run(1 * psbox.Second)
		return box.Read(),
			sys.Meter.Energy("cpu", 0, sys.Now()),
			sys.Meter.Energy("gpu", 0, sys.Now())
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%v,%v) vs (%v,%v,%v)", a1, b1, c1, a2, b2, c2)
	}
}

func TestSeedsChangeBehaviour(t *testing.T) {
	energy := func(seed uint64) float64 {
		sys := psbox.NewAM57(seed)
		workload.Install(sys.Kernel, workload.Bodytrack(2, false))
		sys.Run(1 * psbox.Second)
		return sys.Meter.Energy("cpu", 0, sys.Now())
	}
	if energy(1) == energy(2) {
		t.Fatal("different seeds should perturb jittered workloads")
	}
}

func TestAccountantUnknownRailPanics(t *testing.T) {
	sys := psbox.NewAM57(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sys.Accountant("npu", account.PolicyUsageShare)
}

// TestRenamedCPUKeepsItsRecord: the CPU's occupancy record is keyed by
// the CPU rail's name, so a CPU not named "cpu" still feeds the session
// manager's accountants, the baseline accountant and the profile; and the
// cpu scope meters that rail, so a box reads what it reads on a CPU named
// "cpu".
func TestRenamedCPUKeepsItsRecord(t *testing.T) {
	spin := func(cpu string) (*psbox.System, *psbox.App, *psbox.Box) {
		cfg := psbox.AM57Config(1)
		cfg.CPU.Name = cpu
		sys := psbox.NewSystem(cfg)
		sys.EnableProfiling()
		app := sys.Kernel.NewApp("spin")
		app.Spawn("spin", 0, psbox.Loop(psbox.Compute{Cycles: 1e6}, psbox.Sleep{D: psbox.Millisecond}))
		box, err := sys.Sandbox.Create(app, psbox.HWCPU)
		if err != nil {
			t.Fatalf("box on a CPU named %q: %v", cpu, err)
		}
		box.Enter()
		sys.Sandboxes()
		sys.Run(50 * psbox.Millisecond)
		return sys, app, box
	}
	sys, app, box := spin("big")
	_, _, ref := spin("cpu")
	if got, want := box.Read(), ref.Read(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("box on a CPU named big reads %v J, on one named cpu %v J", got, want)
	}
	if e := sys.Accountant("big", account.PolicyUsageShare).AppEnergy(app.ID, 0, sys.Now()); e <= 0 {
		t.Fatalf("accountant on the renamed CPU rail attributes %v J to the spinning app", e)
	}
	sys.FoldProfile()
	for _, e := range sys.Profile.Entries() {
		if e.App == app.Name && e.Comp == "sched" && e.Rail == "big" && e.J > 0 {
			return
		}
	}
	t.Fatalf("no %s;sched;big stack in the profile: %v", app.Name, sys.Profile.Entries())
}

func TestAccountantSharesAreConsistent(t *testing.T) {
	sys := psbox.NewAM57(5)
	a := workload.Install(sys.Kernel, workload.Calib3D(2, false))
	b := workload.Install(sys.Kernel, workload.Dedup(2, false))
	sys.Run(1 * psbox.Second)
	acc := sys.Accountant("cpu", account.PolicyUsageShare)
	shares := acc.Shares(0, sys.Now())
	total := shares[a.ID] + shares[b.ID]
	rail := sys.Meter.Energy("cpu", 0, sys.Now())
	if total <= 0 || total > rail+1e-9 {
		t.Fatalf("shares %v exceed rail energy %v", total, rail)
	}
}

// Property: a sandbox's reading never exceeds its rail's total energy, for
// arbitrary workload mixes.
func TestQuickBoxNeverExceedsRail(t *testing.T) {
	f := func(seed uint64, burstRaw, restRaw uint8) bool {
		burst := float64(burstRaw%50+1) * 1e5
		rest := psbox.Duration(restRaw%20+1) * psbox.Millisecond
		sys := psbox.NewAM57(seed)
		app := sys.Kernel.NewApp("a")
		app.Spawn("t", 0, psbox.Loop(psbox.Compute{Cycles: burst}, psbox.Sleep{D: rest}))
		other := sys.Kernel.NewApp("b")
		other.Spawn("t", 1, psbox.Loop(psbox.Compute{Cycles: 1e6}))
		box := sys.Sandbox.MustCreate(app, psbox.HWCPU)
		box.Enter()
		sys.Run(300 * psbox.Millisecond)
		return box.Read() <= sys.Meter.Energy("cpu", 0, sys.Now())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: entering and leaving a box never loses energy monotonicity —
// Read() is non-decreasing over time.
func TestQuickBoxReadMonotone(t *testing.T) {
	f := func(seed uint64, toggles uint8) bool {
		sys := psbox.NewAM57(seed)
		app := sys.Kernel.NewApp("a")
		app.Spawn("t", 0, psbox.Loop(psbox.Compute{Cycles: 5e5}, psbox.Sleep{D: 2 * psbox.Millisecond}))
		box := sys.Sandbox.MustCreate(app, psbox.HWCPU)
		last := 0.0
		n := int(toggles%6) + 2
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				box.Enter()
			} else {
				box.Leave()
			}
			sys.Run(30 * psbox.Millisecond)
			if v := box.Read(); v+1e-12 < last {
				return false
			} else {
				last = v
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLoopAndSequenceHelpers(t *testing.T) {
	sys := psbox.NewAM57(1)
	app := sys.Kernel.NewApp("a")
	tk := app.Spawn("seq", 0, psbox.Sequence(
		psbox.Compute{Cycles: 1e6},
		psbox.Compute{Cycles: 1e6},
	))
	sys.Run(100 * psbox.Millisecond)
	if !tk.Dead() {
		t.Fatal("sequence should exit after its actions")
	}
	want := 2e6 / (sys.Kernel.CPU().FreqMHz() * 1e6)
	if math.Abs(tk.CPUTime().Seconds()-want) > want*0.5 {
		t.Fatalf("cpu time %v", tk.CPUTime())
	}
}

func TestBatteryRailIsExactComponentSum(t *testing.T) {
	sys := psbox.NewAM57(12)
	workload.Install(sys.Kernel, workload.Calib3D(2, false))
	workload.Install(sys.Kernel, workload.Magic(2, false))
	workload.Install(sys.Kernel, workload.SGEMM(2, false))
	sys.Run(1 * psbox.Second)
	var sum float64
	for _, rail := range sys.Meter.Rails() {
		if rail == "battery" {
			continue
		}
		sum += sys.Meter.Energy(rail, 0, sys.Now())
	}
	bat := sys.Meter.Energy("battery", 0, sys.Now())
	if math.Abs(bat-sum) > 1e-9 {
		t.Fatalf("battery %v J != component sum %v J", bat, sum)
	}
	if bat <= 0 {
		t.Fatal("battery rail empty")
	}
}
