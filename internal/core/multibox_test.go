package core_test

import (
	"math"
	"testing"

	psbox "psbox"
)

// Multiple concurrent sandboxes: balloons serialize per rail, every box's
// observation stays insulated, and costs land on each box separately.

func TestTwoCPUBoxesBothConsistent(t *testing.T) {
	type result struct{ a, b float64 }
	run := func(boxBoth bool) result {
		sys := psbox.NewAM57(61)
		mk := func(name string, burst float64, period psbox.Duration) *psbox.App {
			app := sys.Kernel.NewApp(name)
			app.Spawn("t", 0, psbox.Loop(
				psbox.Compute{Cycles: burst},
				psbox.Sleep{D: period},
			))
			return app
		}
		a := mk("a", 2e6, 8*psbox.Millisecond)
		b := mk("b", 4e6, 12*psbox.Millisecond)
		boxA := sys.Sandbox.MustCreate(a, psbox.HWCPU)
		boxA.Enter()
		var boxB *psbox.Box
		if boxBoth {
			boxB = sys.Sandbox.MustCreate(b, psbox.HWCPU)
			boxB.Enter()
		}
		sys.Run(2 * psbox.Second)
		r := result{a: boxA.Read()}
		if boxB != nil {
			r.b = boxB.Read()
		}
		return r
	}
	solo := run(false)
	both := run(true)
	// A's observation is invariant to B also sandboxing itself.
	if diff := math.Abs(both.a-solo.a) / solo.a; diff > 0.05 {
		t.Fatalf("box A shifted %.1f%% when B boxed too", diff*100)
	}
	if both.b <= 0 {
		t.Fatal("box B observed nothing")
	}
}

func TestTwoBoxesNeverResidentTogether(t *testing.T) {
	sys := psbox.NewAM57(62)
	var apps [2]*psbox.App
	for i := range apps {
		apps[i] = sys.Kernel.NewApp("app")
		apps[i].Spawn("t", i, psbox.Loop(
			psbox.Compute{Cycles: 2e6},
			psbox.Sleep{D: 5 * psbox.Millisecond},
		))
	}
	resident := map[int]bool{}
	violations := 0
	sys.Kernel.OnResident("cpu", func(appID int, r bool) {
		resident[appID] = r
		n := 0
		for _, v := range resident {
			if v {
				n++
			}
		}
		if n > 1 {
			violations++
		}
	})
	for _, a := range apps {
		sys.Sandbox.MustCreate(a, psbox.HWCPU).Enter()
	}
	sys.Run(2 * psbox.Second)
	if violations != 0 {
		t.Fatalf("%d overlapping residencies", violations)
	}
	for _, a := range apps {
		if !resident[a.ID] && sys.Sandbox.Box(a.ID).Read() == 0 {
			t.Fatal("a box never got residency")
		}
	}
}

func TestTwoGPUBoxesShareDevice(t *testing.T) {
	sys := psbox.NewAM57(63)
	mk := func() *psbox.App {
		app := sys.Kernel.NewApp("g")
		app.Spawn("t", 0, psbox.Loop(
			psbox.Compute{Cycles: 3e5},
			psbox.SubmitAccel{Dev: "gpu", Kind: "k", Work: 2000, DynW: 0.5},
			psbox.AwaitAccel{Dev: "gpu", MaxBacklog: 0},
			psbox.Sleep{D: 10 * psbox.Millisecond},
		))
		return app
	}
	a, b := mk(), mk()
	boxA := sys.Sandbox.MustCreate(a, psbox.HWGPU)
	boxB := sys.Sandbox.MustCreate(b, psbox.HWGPU)
	boxA.Enter()
	boxB.Enter()
	sys.Run(2 * psbox.Second)
	drv := sys.Kernel.Accel("gpu")
	if drv.Completed(a.ID) == 0 || drv.Completed(b.ID) == 0 {
		t.Fatal("both boxed apps must progress")
	}
	if boxA.Read() <= 0 || boxB.Read() <= 0 {
		t.Fatal("both boxes must observe energy")
	}
	// Rough symmetry: identical apps observe similar energy.
	ratio := boxA.Read() / boxB.Read()
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("asymmetric observations: %v", ratio)
	}
}

func TestMixedScopesAcrossApps(t *testing.T) {
	sys := psbox.NewBeagleBone(64)
	a := sys.Kernel.NewApp("net")
	sock := a.OpenSocket()
	a.Spawn("t", 0, psbox.Loop(
		psbox.Compute{Cycles: 2e5},
		psbox.Send{Socket: sock, Bytes: 2000},
		psbox.AwaitNet{MaxBacklog: 0},
		psbox.Sleep{D: 40 * psbox.Millisecond},
	))
	b := sys.Kernel.NewApp("cpu")
	b.Spawn("t", 0, psbox.Loop(psbox.Compute{Cycles: 1e6}))
	boxA := sys.Sandbox.MustCreate(a, psbox.HWWiFi)
	boxB := sys.Sandbox.MustCreate(b, psbox.HWCPU)
	boxA.Enter()
	boxB.Enter()
	sys.Run(2 * psbox.Second)
	if boxA.Read() <= 0 || boxB.Read() <= 0 {
		t.Fatal("different-scope boxes must coexist")
	}
	if sys.Kernel.Net().SentBytes(a.ID) == 0 {
		t.Fatal("net app stalled")
	}
}
