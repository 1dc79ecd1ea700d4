package soak

import (
	"psbox"
	"psbox/internal/faults"
	"psbox/internal/sim"
)

// Scenario builds the canonical mixed-fault scenario that psbox-soak
// reports on and crashes: the mobile platform with tracing and
// accelerator watchdogs running Mix, one fault of each kind at fixed
// fractions of the horizon plus a seeded random campaign, and an
// invariant audit every horizon/20. A pure function of (seed, horizon).
func Scenario(seed uint64, horizon sim.Duration) *psbox.System {
	sys := psbox.NewMobile(seed)
	sys.EnableTracing()
	sys.EnableAccelWatchdogs()

	Mix(sys)

	at := func(frac float64) psbox.Time { return psbox.Time(float64(horizon) * frac) }
	sys.Faults.HangAccelAt(at(0.10), "gpu")
	sys.Faults.FlapLinkAt(at(0.25), "wifi", 15*psbox.Millisecond)
	sys.Faults.StallDVFSAt(at(0.40), "cpu", 25*psbox.Millisecond)
	sys.Faults.DropMeterAt(at(0.55), "gpu", 30*psbox.Millisecond)
	sys.Faults.Randomize(faults.Campaign{
		Horizon:       horizon,
		AccelHangs:    2,
		NICFlaps:      2,
		DVFSStalls:    2,
		MeterDropouts: 3,
	})

	sys.SetAuditEvery(horizon / 20)
	return sys
}

// Mix installs the three-app mix that Scenario and the fleet's per-shard
// workload share: two sandboxed apps and an unsandboxed competitor. The
// sandboxes come back from sys.Sandbox.Boxes() in creation order: vision,
// then stream.
func Mix(sys *psbox.System) {
	// A GPU-bound vision pipeline in a sandbox over cpu+gpu.
	vision := sys.Kernel.NewApp("vision")
	vision.Spawn("render", 0, psbox.Loop(
		psbox.Compute{Cycles: 2e6},
		psbox.SubmitAccel{Dev: "gpu", Kind: "frame", Work: 3e4, DynW: 0.9},
		psbox.AwaitAccel{Dev: "gpu", MaxBacklog: 2},
		psbox.Sleep{D: 4 * psbox.Millisecond},
	))
	sys.Sandbox.MustCreate(vision, psbox.HWCPU, psbox.HWGPU).Enter()

	// A streaming uploader in a sandbox over cpu+wifi.
	stream := sys.Kernel.NewApp("stream")
	sock := stream.OpenSocket()
	stream.Spawn("uplink", 1, psbox.Loop(
		psbox.Compute{Cycles: 8e5},
		psbox.Send{Socket: sock, Bytes: 24_000},
		psbox.AwaitNet{MaxBacklog: 48_000},
		psbox.Sleep{D: 6 * psbox.Millisecond},
	))
	sys.Sandbox.MustCreate(stream, psbox.HWCPU, psbox.HWWiFi).Enter()

	// An unsandboxed competitor keeping the DSP and CPU entangled.
	noise := sys.Kernel.NewApp("noise")
	noise.Spawn("grind", 1, psbox.Loop(
		psbox.Compute{Cycles: 3e6},
		psbox.SubmitAccel{Dev: "dsp", Kind: "fft", Work: 4e4, DynW: 0.5},
		psbox.Sleep{D: 9 * psbox.Millisecond},
	))
}
