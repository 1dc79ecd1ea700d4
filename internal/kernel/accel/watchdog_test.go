package accel

import (
	"testing"

	"psbox/internal/sim"
)

// The watchdog tests are timed from its constants: a hung command draws
// the bark wdTimeout after it started, and its first redispatch
// wdBackoffBase later. The fixture's device does one work unit per ms.

func TestWatchdogRecoversHungCommand(t *testing.T) {
	f := newFixture(t, devCfg())
	f.drv.EnableWatchdog()
	f.submit(1, 10) // 10 ms of work
	if !f.dev.InjectHang() {
		t.Fatal("expected a command to wedge")
	}
	f.eng.RunFor(wdTimeout - 10*sim.Millisecond)
	if f.drv.Completed(1) != 0 || f.drv.WatchdogResets() != 0 {
		t.Fatal("watchdog fired before its deadline")
	}
	f.eng.RunFor(100 * sim.Millisecond)
	if f.drv.WatchdogResets() != 1 {
		t.Fatalf("resets = %d, want 1", f.drv.WatchdogResets())
	}
	if f.drv.Resubmits() != 1 {
		t.Fatalf("resubmits = %d, want 1", f.drv.Resubmits())
	}
	// The resubmitted command runs clean and completes.
	if f.drv.Completed(1) != 1 {
		t.Fatalf("completed = %d, want 1", f.drv.Completed(1))
	}
	if f.drv.Backlog(1) != 0 {
		t.Fatalf("backlog = %d after recovery", f.drv.Backlog(1))
	}
	if f.dev.Hung() != 0 || f.dev.Resets() != 1 {
		t.Fatalf("device hung=%d resets=%d", f.dev.Hung(), f.dev.Resets())
	}
}

func TestWatchdogDoesNotResetHealthySlowTraffic(t *testing.T) {
	f := newFixture(t, devCfg())
	f.drv.EnableWatchdog()
	// Each command takes 10 ms less than the deadline; a steady stream
	// must never trip the watchdog.
	f.feeder(1, float64((wdTimeout-10*sim.Millisecond)/sim.Millisecond), 2)
	f.eng.RunFor(10 * wdTimeout)
	if f.drv.WatchdogResets() != 0 {
		t.Fatalf("watchdog reset healthy device %d times", f.drv.WatchdogResets())
	}
	if f.drv.Completed(1) == 0 {
		t.Fatal("no commands completed")
	}
}

func TestWatchdogCatchesHangBehindLiveTraffic(t *testing.T) {
	// Two execution slots: one wedges, the other keeps completing. The
	// per-command deadline must still catch the wedged one.
	cfg := devCfg()
	cfg.Slots = 4
	cfg.ExecWidth = 2
	f := newFixture(t, cfg)
	f.drv.EnableWatchdog()
	f.submit(1, 500) // will wedge
	if !f.dev.InjectHang() {
		t.Fatal("expected a command to wedge")
	}
	f.feeder(2, 5, 2) // healthy 5 ms commands keep slot 2 cycling
	f.eng.RunFor(wdTimeout + 150*sim.Millisecond)
	if f.drv.WatchdogResets() == 0 {
		t.Fatal("hang hidden behind live traffic was never recovered")
	}
	if f.dev.Hung() != 0 {
		t.Fatal("wedged command still in the device")
	}
}

func TestWatchdogBillsWastedOccupancyToOwner(t *testing.T) {
	f := newFixture(t, devCfg())
	f.drv.EnableWatchdog()
	f.submit(1, 10)
	f.dev.InjectHang()
	before := f.drv.VRuntime(1)
	f.eng.RunFor(wdTimeout + 10*sim.Millisecond) // watchdog barks at wdTimeout
	if f.drv.WatchdogResets() != 1 {
		t.Fatalf("resets = %d", f.drv.WatchdogResets())
	}
	// The owner paid for the wdTimeout its hung command held the slot, on
	// top of whatever the clean rerun bills.
	if got, want := f.drv.VRuntime(1)-before, wdTimeout.Seconds(); got < want {
		t.Fatalf("wasted occupancy billed %.4f slot-seconds, want >= %.4f", got, want)
	}
}

func TestWatchdogDropsCommandAfterMaxRetries(t *testing.T) {
	f := newFixture(t, devCfg())
	f.drv.EnableWatchdog()
	f.submit(1, 10)
	f.dev.InjectHang()
	// Re-wedge the device every time the command is redispatched: the
	// command hangs on every retry and must eventually be dropped.
	var rewedge func(sim.Time)
	rewedge = func(sim.Time) {
		if f.dev.Executing() > 0 && f.dev.Hung() == 0 {
			f.dev.InjectHang()
		}
		f.eng.After(sim.Millisecond, rewedge)
	}
	f.eng.After(sim.Millisecond, rewedge)
	// Every attempt holds its slot for the full deadline, and the backoffs
	// between the wdMaxRetries+1 attempts sum to less than one more.
	f.eng.RunFor(sim.Duration(wdMaxRetries+2) * wdTimeout)
	if f.drv.DroppedCommands() != 1 {
		t.Fatalf("dropped = %d, want 1", f.drv.DroppedCommands())
	}
	// wdMaxRetries+1 resets happened (initial hang + retries), then the
	// driver gave up and the backlog cleared.
	if f.drv.WatchdogResets() != wdMaxRetries+1 {
		t.Fatalf("resets = %d, want %d", f.drv.WatchdogResets(), wdMaxRetries+1)
	}
	if f.drv.Backlog(1) != 0 {
		t.Fatalf("backlog = %d after drop", f.drv.Backlog(1))
	}
}

func TestWatchdogBackoffDelaysResubmission(t *testing.T) {
	f := newFixture(t, devCfg())
	f.drv.EnableWatchdog()
	f.submit(1, 10)
	f.dev.InjectHang()
	f.eng.RunFor(wdTimeout) // bark fires exactly now
	if f.drv.WatchdogResets() != 1 {
		t.Fatalf("resets = %d", f.drv.WatchdogResets())
	}
	// First retry backs off wdBackoffBase before redispatch.
	if f.dev.Busy() != 0 {
		t.Fatal("command redispatched with no backoff")
	}
	f.eng.RunFor(wdBackoffBase - sim.Microsecond)
	if f.dev.Busy() != 0 {
		t.Fatal("command redispatched before wdBackoffBase")
	}
	f.eng.RunFor(sim.Microsecond)
	if f.dev.Busy() != 1 {
		t.Fatal("command not redispatched after backoff")
	}
}
