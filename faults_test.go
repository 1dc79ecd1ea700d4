package psbox_test

import (
	"fmt"
	"testing"

	psbox "psbox"
	"psbox/internal/faults"
)

// faultScenario is a compressed form of soak.Scenario: a GPU pipeline and an
// uplink streamer in sandboxes, one fixed fault of each kind, and a seeded
// random campaign. It returns a full textual trace of everything a fault
// could perturb.
func faultScenario(seed uint64) string {
	sys := psbox.NewMobile(seed)
	sys.EnableAccelWatchdogs()

	vision := sys.Kernel.NewApp("vision")
	vision.Spawn("render", 0, psbox.Loop(
		psbox.Compute{Cycles: 1e6},
		psbox.SubmitAccel{Dev: "gpu", Kind: "frame", Work: 3e4, DynW: 0.9},
		psbox.AwaitAccel{Dev: "gpu", MaxBacklog: 2},
		psbox.Sleep{D: 4 * psbox.Millisecond},
	))
	visionBox := sys.Sandbox.MustCreate(vision, psbox.HWCPU, psbox.HWGPU)
	visionBox.Enter()

	stream := sys.Kernel.NewApp("stream")
	sock := stream.OpenSocket()
	stream.Spawn("uplink", 1, psbox.Loop(
		psbox.Compute{Cycles: 5e5},
		psbox.Send{Socket: sock, Bytes: 12_000},
		psbox.AwaitNet{MaxBacklog: 24_000},
		psbox.Sleep{D: 5 * psbox.Millisecond},
	))
	streamBox := sys.Sandbox.MustCreate(stream, psbox.HWCPU, psbox.HWWiFi)
	streamBox.Enter()

	const horizon = 400 * psbox.Millisecond
	sys.Faults.HangAccelAt(psbox.Time(horizon/10), "gpu")
	sys.Faults.FlapLinkAt(psbox.Time(horizon/4), "wifi", 10*psbox.Millisecond)
	sys.Faults.StallDVFSAt(psbox.Time(2*horizon/5), "cpu", 15*psbox.Millisecond)
	sys.Faults.DropMeterAt(psbox.Time(horizon/2), "gpu", 25*psbox.Millisecond)
	sys.Faults.Randomize(faults.Campaign{
		Horizon:       horizon,
		AccelHangs:    1,
		NICFlaps:      1,
		DVFSStalls:    1,
		MeterDropouts: 2,
	})

	sys.Run(horizon)

	out := sys.Faults.FormatLog()
	for _, name := range sys.Kernel.AccelNames() {
		d := sys.Kernel.Accel(name)
		out += fmt.Sprintf("%s resets=%d resubmits=%d dropped=%d\n",
			name, d.WatchdogResets(), d.Resubmits(), d.DroppedCommands())
	}
	out += fmt.Sprintf("net flaps=%d retries=%d\n",
		sys.Kernel.Net().NIC().Flaps(), sys.Kernel.Net().LinkRetries())
	for _, b := range []*psbox.Box{visionBox, streamBox} {
		direct, est, gaps := b.ReadDetail()
		out += fmt.Sprintf("%s direct=%.12f est=%.12f gaps=%d\n",
			b.App().Name, direct, est, gaps)
	}
	out += fmt.Sprintf("battery=%.12f\n", sys.Meter.Energy("battery", 0, sys.Now()))
	return out
}

// TestFaultScenarioDeterministic is the in-tree version of the CI
// determinism job: one seed, two fresh systems, byte-identical traces.
func TestFaultScenarioDeterministic(t *testing.T) {
	a, b := faultScenario(7), faultScenario(7)
	if a != b {
		t.Fatalf("same seed diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if c := faultScenario(8); c == a {
		t.Fatal("different seeds produced identical fault traces")
	}
}

// TestFaultScenarioRecovers asserts every recovery path actually engaged:
// the watchdog reset the hung GPU, the packet scheduler retransmitted over
// the flap, and the vision box's reading went degraded over the DAQ gap —
// all while System.Run's invariant audit (energy conservation, balloon
// exclusivity, non-negative backlogs, monotone readings) stayed silent.
func TestFaultScenarioRecovers(t *testing.T) {
	sys := psbox.NewMobile(3)
	sys.EnableAccelWatchdogs()

	vision := sys.Kernel.NewApp("vision")
	vision.Spawn("render", 0, psbox.Loop(
		psbox.Compute{Cycles: 1e6},
		psbox.SubmitAccel{Dev: "gpu", Kind: "frame", Work: 3e4, DynW: 0.9},
		psbox.AwaitAccel{Dev: "gpu", MaxBacklog: 2},
		psbox.Sleep{D: 4 * psbox.Millisecond},
	))
	visionBox := sys.Sandbox.MustCreate(vision, psbox.HWCPU, psbox.HWGPU)
	visionBox.Enter()

	stream := sys.Kernel.NewApp("stream")
	sock := stream.OpenSocket()
	stream.Spawn("uplink", 1, psbox.Loop(
		psbox.Send{Socket: sock, Bytes: 12_000},
		psbox.AwaitNet{MaxBacklog: 12_000},
		psbox.Sleep{D: 3 * psbox.Millisecond},
	))

	sys.Faults.HangAccelAt(psbox.Time(50*psbox.Millisecond), "gpu")
	sys.Faults.FlapLinkAt(psbox.Time(100*psbox.Millisecond), "wifi", 10*psbox.Millisecond)
	sys.Faults.DropMeterAt(psbox.Time(200*psbox.Millisecond), "gpu", 20*psbox.Millisecond)

	sys.Run(400 * psbox.Millisecond)

	gpu := sys.Kernel.Accel("gpu")
	if gpu.WatchdogResets() == 0 || gpu.Resubmits() == 0 {
		t.Fatalf("gpu hang never recovered: resets=%d resubmits=%d",
			gpu.WatchdogResets(), gpu.Resubmits())
	}
	if sys.Kernel.Net().LinkRetries() == 0 {
		t.Fatal("link flap never forced a retransmission")
	}
	if !visionBox.Degraded() {
		t.Fatal("vision box should report a degraded reading over the DAQ gap")
	}
	if _, est, gaps := visionBox.ReadDetail(); gaps == 0 || est <= 0 {
		t.Fatalf("degraded detail: est=%v gaps=%d", est, gaps)
	}
	if gpu.Completed(vision.ID) == 0 {
		t.Fatal("vision made no progress through the faults")
	}
}
