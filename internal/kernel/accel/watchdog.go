package accel

import (
	"sort"

	"psbox/internal/hw/accelhw"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// The kernel watchdog over one accelerator: the recovery path for wedged
// devices (a GPU ring that stops retiring commands, a DSP kernel stuck in
// an infinite loop). Its deadlines mirror the conservative ones of real
// GPU job watchdogs: long enough that a slow command at the lowest
// operating point finishes comfortably, short enough that an app blocked
// on a wedged device recovers quickly.
const (
	// wdTimeout is the per-command execution deadline (the Linux DRM job
	// timeout, in spirit): if the oldest executing command has held its
	// slot this long without completing, the watchdog declares the device
	// hung, resets it, and resubmits the orphaned commands. It must exceed
	// the worst-case legitimate command latency, or healthy slow commands
	// will be reset in a livelock.
	wdTimeout = 250 * sim.Millisecond

	// wdBackoffBase is the resubmission delay after a command's first
	// abort; it doubles per retry of the same command, capped at
	// wdBackoffCap.
	wdBackoffBase = 2 * sim.Millisecond
	wdBackoffCap  = 32 * sim.Millisecond

	// wdMaxRetries bounds resubmissions per command; beyond it the command
	// is dropped (the app's backlog shrinks as if it completed, but nothing
	// is billed for it and no work is credited).
	wdMaxRetries = 5
)

// EnableWatchdog arms the execution-deadline watchdog. It may be called
// before any commands flow; a driver runs without one until then.
func (d *Driver) EnableWatchdog() {
	d.wd = true
	d.armWatchdog()
}

// WatchdogResets reports how many times the watchdog reset the device.
func (d *Driver) WatchdogResets() uint64 { return d.wdResets }

// Resubmits reports how many orphaned commands the watchdog requeued.
func (d *Driver) Resubmits() uint64 { return d.wdResubmits }

// DroppedCommands reports commands abandoned after exhausting wdMaxRetries.
func (d *Driver) DroppedCommands() uint64 { return d.wdDropped }

// feedWatchdog re-evaluates the watchdog deadline after a dispatch or a
// completion changed what is executing.
func (d *Driver) feedWatchdog() {
	d.armWatchdog()
}

// oldestExec returns the start time of the oldest executing command;
// ok=false when nothing is executing. (Ring entries have not started, but
// whenever the ring is non-empty something is executing ahead of it, so
// the oldest executing command covers them.)
func (d *Driver) oldestExec() (sim.Time, bool) {
	n := d.dev.Executing()
	if n == 0 {
		return 0, false
	}
	exec := d.dev.InFlight()[:n]
	oldest := exec[0].Started
	for _, c := range exec[1:] {
		if c.Started < oldest {
			oldest = c.Started
		}
	}
	return oldest, true
}

func (d *Driver) armWatchdog() {
	if !d.wd || d.wdArm.Pending() {
		return
	}
	oldest, ok := d.oldestExec()
	if !ok {
		return
	}
	d.wdArm = d.eng.At(oldest.Add(wdTimeout), d.watchdogTick)
}

func (d *Driver) watchdogTick(now sim.Time) {
	oldest, ok := d.oldestExec()
	if !ok {
		return
	}
	if now.Sub(oldest) < wdTimeout {
		// The command this deadline was armed for completed; track the new
		// oldest instead.
		d.armWatchdog()
		return
	}
	d.recoverDevice(now)
}

// recoverDevice is the watchdog bark: reset the wedged device, bill the
// wasted occupancy to the owning apps (a sandboxed owner pays for its own
// hang — retry energy is confined exactly like any other energy), and
// resubmit the orphaned commands with capped exponential backoff.
func (d *Driver) recoverDevice(now sim.Time) {
	aborted := d.dev.Reset()
	d.wdResets++
	d.bus.Instant(obs.CatAccel, "wd-reset", 0, int64(len(aborted)), d.dev.Config().Name, d.dev.Config().Name)
	d.bus.Count("accel.wd_resets", 0, d.dev.Config().Name, 1)
	touched := map[int]bool{}
	for _, cmd := range aborted {
		a := d.app(cmd.Owner)
		a.inflight--
		touched[cmd.Owner] = true
		// The slot-time the command held until the reset was burned for
		// nothing; charge it in the usual occupancy currency.
		a.Credit += now.Sub(cmd.Dispatched).Seconds()
		cmd.Retries++
		if cmd.Retries > wdMaxRetries {
			d.wdDropped++
			d.bus.Instant(obs.CatAccel, "wd-drop", cmd.Owner, int64(cmd.ID), d.dev.Config().Name, cmd.Kind)
			d.bus.Count("accel.wd_dropped", cmd.Owner, d.dev.Config().Name, 1)
			continue
		}
		backoff := sim.Backoff(cmd.Retries, wdBackoffBase, wdBackoffCap)
		d.wdResubmits++
		d.bus.Instant(obs.CatAccel, "wd-resubmit", cmd.Owner, int64(cmd.ID), d.dev.Config().Name, cmd.Kind)
		d.bus.Count("accel.wd_resubmits", cmd.Owner, d.dev.Config().Name, 1)
		cc := cmd
		d.eng.After(backoff, func(sim.Time) { d.requeue(cc) })
	}
	d.pump()
	if d.cbs.BacklogChange != nil {
		owners := make([]int, 0, len(touched))
		for id := range touched {
			owners = append(owners, id)
		}
		sort.Ints(owners)
		for _, id := range owners {
			d.cbs.BacklogChange(id)
		}
	}
	d.armWatchdog()
}

// requeue returns an aborted command to its owner's pending queue once its
// backoff expires, in original submission (ID) order so retried commands do
// not jump ahead of their successors.
func (d *Driver) requeue(cmd *accelhw.Command) {
	a := d.app(cmd.Owner)
	i := 0
	for i < len(a.pending) && a.pending[i].ID < cmd.ID {
		i++
	}
	a.pending = append(a.pending, nil)
	copy(a.pending[i+1:], a.pending[i:])
	a.pending[i] = cmd
	d.pump()
}
