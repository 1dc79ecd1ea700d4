package kernel

import (
	"fmt"

	"psbox/internal/hw/accelhw"
	"psbox/internal/hw/display"
	"psbox/internal/kernel/sched"
	"psbox/internal/sim"
)

// maxActionsPerInstant bounds zero-time program loops; a program that
// issues this many non-blocking actions without computing is livelocked.
const maxActionsPerInstant = 10000

// onRunTask is the scheduler's context-switch-in callback: start (or
// resume) executing the task's current compute burst.
func (k *Kernel) onRunTask(core int, st *sched.Task) {
	t, ok := k.tasks[st]
	if !ok {
		panic(fmt.Sprintf("kernel: scheduler ran unknown task %s", st.Name))
	}
	k.runTaskCB(core, t)
}

// onStopTask is the context-switch-out callback.
func (k *Kernel) onStopTask(core int, st *sched.Task) {
	t, ok := k.tasks[st]
	if !ok {
		panic(fmt.Sprintf("kernel: scheduler stopped unknown task %s", st.Name))
	}
	k.stopTaskCB(core, t)
}

func (k *Kernel) runTaskCB(core int, t *Task) {
	k.cpu.SetCoreBusy(core, true)
	k.running[core] = t
	t.core = core
	t.runStart = k.eng.Now()
	t.runRate = k.cpu.CyclesPerSecond()
	if k.mem != nil {
		k.mem.SetCoreStream(core, t.memGBs)
	}
	if t.remaining <= 0 {
		// No burst in progress: fetch the next actions now.
		k.advance(t)
		return
	}
	k.armCompletion(t)
}

func (k *Kernel) stopTaskCB(core int, t *Task) {
	if k.running[core] != t {
		panic(fmt.Sprintf("kernel: core %d stop for %s but running %v", core, t.Name, k.running[core]))
	}
	now := k.eng.Now()
	k.eng.Cancel(t.compArm)
	elapsed := now.Sub(t.runStart).Seconds()
	t.remaining -= float64(elapsed * t.runRate)
	if t.remaining < 0 {
		t.remaining = 0
	}
	if now > t.runStart {
		k.cpuHooks.record(t.app.ID, t.runStart, now)
	}
	k.running[core] = nil
	t.core = -1
	k.cpu.SetCoreBusy(core, false)
	if k.mem != nil {
		k.mem.SetCoreStream(core, 0)
	}
}

func (k *Kernel) onCoreIdle(core int) {
	k.cpu.SetCoreBusy(core, false)
}

// armCompletion schedules the end of the task's current compute burst.
func (k *Kernel) armCompletion(t *Task) {
	k.eng.Cancel(t.compArm)
	durNs := int64(t.remaining / t.runRate * 1e9)
	if durNs < 1 {
		durNs = 1
	}
	tt := t
	t.compArm = k.eng.After(sim.Duration(durNs), func(sim.Time) {
		now := k.eng.Now()
		tt.remaining -= float64(now.Sub(tt.runStart).Seconds() * tt.runRate)
		if tt.remaining < 1e-3 {
			tt.remaining = 0
		}
		if now > tt.runStart {
			k.cpuHooks.record(tt.app.ID, tt.runStart, now)
		}
		tt.runStart = now
		if tt.remaining > 0 {
			// Numeric residue: keep running.
			k.armCompletion(tt)
			return
		}
		k.advance(tt)
	})
}

// onFreqChange recomputes every running task's burst completion at the new
// execution rate.
func (k *Kernel) onFreqChange(oldIdx, newIdx int) {
	now := k.eng.Now()
	for _, t := range k.running {
		if t == nil {
			continue
		}
		elapsed := now.Sub(t.runStart).Seconds()
		t.remaining -= float64(elapsed * t.runRate)
		if t.remaining < 0 {
			t.remaining = 0
		}
		if now > t.runStart {
			k.cpuHooks.record(t.app.ID, t.runStart, now)
		}
		t.runStart = now
		t.runRate = k.cpu.CyclesPerSecond()
		if t.compArm.Pending() {
			k.armCompletion(t)
		}
	}
}

// advance fetches and executes the task's next actions until one consumes
// time (Compute), blocks (waits, sleep), or exits. The task is on a CPU.
func (k *Kernel) advance(t *Task) {
	for i := 0; ; i++ {
		if i >= maxActionsPerInstant {
			panic(fmt.Sprintf("kernel: task %s issued %d actions without computing — livelocked program", t.Name, i))
		}
		switch a := t.prog.Next(t.env).(type) {
		case Compute:
			if a.Cycles <= 0 {
				panic(fmt.Sprintf("kernel: task %s computed non-positive cycles", t.Name))
			}
			if a.MemGBs < 0 {
				panic(fmt.Sprintf("kernel: task %s with negative memory bandwidth", t.Name))
			}
			t.remaining = a.Cycles
			t.memGBs = a.MemGBs
			t.runStart = k.eng.Now()
			t.runRate = k.cpu.CyclesPerSecond()
			if k.mem != nil {
				k.mem.SetCoreStream(t.core, t.memGBs)
			}
			k.armCompletion(t)
			return
		case SubmitAccel:
			drv := k.Accel(a.Dev)
			drv.Submit(t.app.ID, &accelhw.Command{Kind: a.Kind, Work: a.Work, DynW: a.DynW})
		case SubmitAccelAs:
			if _, ok := k.apps[a.OnBehalfOf]; !ok {
				panic(fmt.Sprintf("kernel: task %s delegating for unknown app %d", t.Name, a.OnBehalfOf))
			}
			drv := k.Accel(a.Dev)
			drv.Submit(a.OnBehalfOf, &accelhw.Command{Kind: a.Kind, Work: a.Work, DynW: a.DynW})
		case AwaitAccel:
			drv := k.Accel(a.Dev)
			if drv.Backlog(t.app.ID) <= a.MaxBacklog {
				continue
			}
			t.waitDev = a.Dev
			t.waitMax = a.MaxBacklog
			t.app.demandDelta(-1)
			k.sch.Block(t.st)
			return
		case Send:
			if a.Socket < 0 || a.Socket >= len(t.app.sockets) {
				panic(fmt.Sprintf("kernel: task %s sending on unknown socket %d", t.Name, a.Socket))
			}
			k.net.Send(t.app.sockets[a.Socket], a.Bytes)
		case SetTxLevel:
			k.net.SetTxLevel(t.app.ID, a.Level)
		case SetDisplayRegion:
			if k.disp == nil {
				panic(fmt.Sprintf("kernel: task %s drawing with no display attached", t.Name))
			}
			k.disp.SetRegion(display.Region{Owner: t.app.ID, Pixels: a.Pixels, Luminance: a.Luminance})
		case AcquireGPS:
			if k.gpsDev == nil {
				panic(fmt.Sprintf("kernel: task %s acquiring absent GPS", t.Name))
			}
			k.gpsDev.Acquire(t.app.ID)
		case ReleaseGPS:
			k.gpsDev.Release(t.app.ID)
		case AwaitNet:
			if k.net.Backlog(t.app.ID) <= a.MaxBacklog {
				continue
			}
			t.waitNet = true
			t.waitMax = a.MaxBacklog
			t.app.demandDelta(-1)
			k.sch.Block(t.st)
			return
		case Sleep:
			if a.D <= 0 {
				continue
			}
			t.app.demandDelta(-1)
			k.sch.Block(t.st)
			tt := t
			t.sleepArm = k.eng.After(a.D, func(sim.Time) {
				if !tt.dead {
					tt.app.demandDelta(+1)
					k.sch.Wake(tt.st)
				}
			})
			return
		case Exit:
			t.dead = true
			t.app.demandDelta(-1)
			k.sch.Exit(t.st)
			return
		default:
			panic(fmt.Sprintf("kernel: task %s returned unknown action %T", t.Name, a))
		}
	}
}

// checkAccelWaiters wakes tasks whose accelerator-backlog condition now
// holds.
func (k *Kernel) checkAccelWaiters(dev string, appID int) {
	app, ok := k.apps[appID]
	if !ok {
		return
	}
	drv := k.accels[dev]
	for _, t := range app.tasks {
		if t.dead || t.waitDev != dev {
			continue
		}
		if drv.Backlog(appID) <= t.waitMax {
			t.waitDev = ""
			t.app.demandDelta(+1)
			k.sch.Wake(t.st)
		}
	}
}

// checkNetWaiters wakes tasks whose unsent-bytes condition now holds.
func (k *Kernel) checkNetWaiters(appID int) {
	app, ok := k.apps[appID]
	if !ok {
		return
	}
	for _, t := range app.tasks {
		if t.dead || !t.waitNet {
			continue
		}
		if k.net.Backlog(appID) <= t.waitMax {
			t.waitNet = false
			t.app.demandDelta(+1)
			k.sch.Wake(t.st)
		}
	}
}

// Kill terminates a task from outside (failure injection in tests).
func (k *Kernel) Kill(t *Task) {
	if t.dead {
		return
	}
	t.dead = true
	k.eng.Cancel(t.sleepArm)
	if t.st.State() == sched.StateRunnable || t.st.State() == sched.StateRunning {
		t.app.demandDelta(-1)
	}
	k.sch.Exit(t.st)
}
