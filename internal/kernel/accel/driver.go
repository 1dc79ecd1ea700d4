// Package accel implements the kernel-side accelerator driver of §4.2: a
// fair (CFS-in-spirit) command scheduler over an asynchronous device,
// augmented with psbox temporal resource balloons realized as the paper's
// five-phase protocol — drain-others, flush-psbox, serve-psbox,
// drain-psbox, flush-others — with the lost sharing opportunity billed to
// the sandboxed app and the device's operating power state virtualized per
// sandbox.
package accel

import (
	"fmt"

	"psbox/internal/hw/accelhw"
	"psbox/internal/kernel/fair"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// Phase is the temporal-balloon phase the driver is in.
type Phase int

const (
	// PhaseNone: no balloon active; ordinary fair multiplexing.
	PhaseNone Phase = iota
	// PhaseDrainOthers: holding back all requests until in-flight commands
	// of other apps complete (§4.2 phase 1).
	PhaseDrainOthers
	// PhaseServe: flushing and serving the sandboxed app exclusively
	// (§4.2 phases 2–3).
	PhaseServe
	// PhaseDrainBox: draining the sandboxed app's outstanding commands
	// before handing the device back (§4.2 phase 4; phase 5, flushing
	// others, happens at the transition out).
	PhaseDrainBox
)

func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return "none"
	case PhaseDrainOthers:
		return "drain-others"
	case PhaseServe:
		return "serve"
	case PhaseDrainBox:
		return "drain-box"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

type appState struct {
	fair.App // credit: slot-seconds of device usage
	pending  []*accelhw.Command
	inflight int
	state    accelhw.FreqState // virtual power state while boxed

	completed  uint64
	workDone   float64
	latencySum sim.Duration
	latencyN   uint64
}

// busy reports pending or in-flight commands: the app competes for the
// device.
func (a *appState) busy() bool { return len(a.pending) > 0 || a.inflight > 0 }

// hasPending reports commands the driver could dispatch.
func (a *appState) hasPending() bool { return len(a.pending) > 0 }

// graceDelay bounds how long a credit-ineligible sandbox waits for
// momentarily idle competitors before its balloon may open anyway. Without
// this gate a balloon would open in every sub-millisecond gap between
// serial competitors' requests, and the whole-device billing could never
// space balloons out — the confinement of §6.3 would collapse.
const graceDelay = 2 * sim.Millisecond

// Driver multiplexes apps over one accelerator device.
type Driver struct {
	eng *sim.Engine
	dev *accelhw.Device
	//psbox:allow-snapshotstate wiring: callback closures installed at construction
	cbs fair.Callbacks
	led fair.Ledger[*appState]

	phase       Phase
	activeBox   *appState
	othersState accelhw.FreqState
	lastBill    sim.Time
	graceArm    sim.Handle

	nextCmdID uint64

	// Watchdog state (wd false: disabled). The deadline is per executing
	// command: the oldest one must complete within wdTimeout of starting.
	wd          bool
	wdArm       sim.Handle
	wdResets    uint64
	wdResubmits uint64
	wdDropped   uint64

	// BillDrainIdleOnly switches drain-others billing to the paper's
	// literal "unutilized portion" rule; see settleBalloonBill. Exposed
	// for the ablation bench.
	BillDrainIdleOnly bool

	// Observability (nil-safe; the bus snapshots itself).
	bus *obs.Bus
}

// SetBus routes the driver's trace events and metrics to a bus. Command
// spans carry the device rail name so they join with meter samples.
func (d *Driver) SetBus(b *obs.Bus) { d.bus = b }

// phaseKinds pre-renders the phase-instant kinds so emission never
// formats strings.
var phaseKinds = [...]string{"phase-none", "phase-drain-others", "phase-serve", "phase-drain-box"}

// setPhase is the single phase-transition choke point: every balloon
// phase change emits one instant carrying the new phase.
func (d *Driver) setPhase(p Phase) {
	if d.phase == p {
		return
	}
	d.phase = p
	owner := 0
	if d.activeBox != nil {
		owner = d.activeBox.ID
	}
	d.bus.Instant(obs.CatAccel, phaseKinds[p], owner, int64(p), d.dev.Config().Name, d.dev.Config().Name)
}

// New wires a driver to dev and installs its completion interrupt handler.
func New(eng *sim.Engine, dev *accelhw.Device, cbs fair.Callbacks) *Driver {
	d := &Driver{
		eng: eng,
		dev: dev,
		cbs: cbs,
		led: fair.NewLedger((*appState).busy, (*appState).hasPending),
	}
	dev.OnComplete(d.onComplete)
	return d
}

// Device exposes the underlying hardware model.
func (d *Driver) Device() *accelhw.Device { return d.dev }

// SetCallbacks replaces the driver's callbacks; the kernel uses this to
// interpose its own routing when the driver is attached.
func (d *Driver) SetCallbacks(cbs fair.Callbacks) { d.cbs = cbs }

// Phase reports the current balloon phase.
func (d *Driver) Phase() Phase { return d.phase }

func (d *Driver) app(id int) *appState {
	a, ok := d.led.Get(id)
	if !ok {
		a = &appState{state: accelhw.FreqState{FreqIdx: d.dev.Config().InitialFreqIdx}}
		d.led.Join(id, a)
	}
	return a
}

// Submit hands a command to the driver on behalf of app owner. Kind, Work
// and DynW must be set by the caller; the driver assigns the ID and
// timestamps.
func (d *Driver) Submit(owner int, cmd *accelhw.Command) {
	if cmd.Work <= 0 {
		panic(fmt.Sprintf("accel %s: submit with non-positive work", d.dev.Config().Name))
	}
	d.nextCmdID++
	cmd.ID = d.nextCmdID
	cmd.Owner = owner
	cmd.Submitted = d.eng.Now()
	d.bus.Instant(obs.CatAccel, "submit", owner, int64(cmd.ID), d.dev.Config().Name, cmd.Kind)
	d.bus.Count("accel.submitted", owner, d.dev.Config().Name, 1)
	a := d.app(owner)
	if !a.busy() {
		d.led.Wake(a)
	}
	a.pending = append(a.pending, cmd)
	d.pump()
}

// Backlog reports an app's pending plus in-flight command count.
func (d *Driver) Backlog(appID int) int {
	a, ok := d.led.Get(appID)
	if !ok {
		return 0
	}
	return len(a.pending) + a.inflight
}

// Completed reports how many commands an app has retired.
func (d *Driver) Completed(appID int) uint64 {
	if a, ok := d.led.Get(appID); ok {
		return a.completed
	}
	return 0
}

// WorkDone reports the total work units an app has retired.
func (d *Driver) WorkDone(appID int) float64 {
	if a, ok := d.led.Get(appID); ok {
		return a.workDone
	}
	return 0
}

// MeanDispatchLatency reports an app's mean submit→dispatch latency — the
// §6.2 command-dispatch latency metric. Zero appID aggregates all apps.
func (d *Driver) MeanDispatchLatency(appID int) sim.Duration {
	var sum sim.Duration
	var n uint64
	for _, a := range d.led.Apps() {
		if appID != 0 && a.ID != appID {
			continue
		}
		sum += a.latencySum
		n += a.latencyN
	}
	if n == 0 {
		return 0
	}
	return sim.Duration(int64(sum) / int64(n))
}

// VRuntime exposes an app's scheduling credit for tests and traces.
func (d *Driver) VRuntime(appID int) float64 {
	if a, ok := d.led.Get(appID); ok {
		return a.Credit
	}
	return 0
}

// BoxEnter encloses an app: from now on its commands execute only inside
// temporal balloons, and the device's operating power state is virtualized
// for it, starting from the device's initial (cold) operating point.
func (d *Driver) BoxEnter(appID int) {
	a := d.app(appID)
	if a.Boxed {
		return
	}
	a.Boxed = true
	a.state = accelhw.FreqState{FreqIdx: d.dev.Config().InitialFreqIdx}
	d.pump()
}

// BoxLeave dissolves an app's sandbox on this device. If its balloon is
// active it is torn down; in-flight commands finish as ordinary work.
func (d *Driver) BoxLeave(appID int) {
	a, ok := d.led.Get(appID)
	if !ok || !a.Boxed {
		return
	}
	if d.activeBox == a {
		d.settleBalloonBill()
		if d.phase == PhaseServe || d.phase == PhaseDrainBox {
			a.state = d.dev.State()
			d.dev.Restore(d.othersState)
			if d.cbs.BoxResident != nil {
				d.cbs.BoxResident(appID, false)
			}
		}
		d.setPhase(PhaseNone)
		d.activeBox = nil
	}
	a.Boxed = false
	d.pump()
}

// onComplete is the device interrupt handler.
func (d *Driver) onComplete(cmd *accelhw.Command) {
	d.feedWatchdog()
	a := d.app(cmd.Owner)
	a.inflight--
	a.completed++
	a.workDone += cmd.Work
	d.bus.Span(obs.CatAccel, "exec", cmd.Owner, int64(cmd.ID), d.dev.Config().Name, cmd.Kind, cmd.Started)
	d.bus.Count("accel.completed", cmd.Owner, d.dev.Config().Name, 1)
	if d.cbs.Usage != nil {
		// The baseline comparator gets execution spans (ring wait
		// excluded): the paper implements the prior accounting mechanism
		// "favorably", tracking usage at the lowest software level.
		d.cbs.Usage(cmd.Owner, cmd.Started, cmd.Completed)
	}
	// Ordinary billing: an app pays for its own occupancy. Inside balloon
	// phases 2–4 the sandboxed app pays wall-clock for the whole device
	// instead (settleBalloonBill), so its own completions bill nothing
	// extra here.
	if !(d.activeBox == a && (d.phase == PhaseServe || d.phase == PhaseDrainBox)) {
		a.Credit += cmd.Completed.Sub(cmd.Dispatched).Seconds()
	}
	d.pump()
	if d.cbs.BacklogChange != nil {
		d.cbs.BacklogChange(cmd.Owner)
	}
}

// settleBalloonBill charges balloon wall-time to the sandboxed app since
// the last settlement: the entire device during serve/drain-box (§4.2:
// "bills the usage of entire accelerator to App"), and — by default — the
// entire device during drain-others as well. The paper bills only the
// *unutilized* portion during draining; we deliberately over-approximate
// it to the full device because the driver only observes utilization at
// completion events, and because the stronger charge is what makes the
// §6.3 confinement robust. BillDrainIdleOnly selects the paper's literal
// rule for the ablation study.
func (d *Driver) settleBalloonBill() {
	now := d.eng.Now()
	dt := now.Sub(d.lastBill).Seconds()
	d.lastBill = now
	if dt <= 0 || d.activeBox == nil {
		return
	}
	width := d.dev.ExecWidth()
	switch d.phase {
	case PhaseDrainOthers:
		n := width
		if d.BillDrainIdleOnly {
			n = width - d.dev.Executing()
		}
		if n > 0 {
			d.activeBox.Credit += float64(float64(n) * dt)
		}
	case PhaseServe, PhaseDrainBox:
		d.activeBox.Credit += float64(float64(width) * dt)
	}
}

// dispatch sends one pending command of a to the device.
func (d *Driver) dispatch(a *appState) {
	cmd := a.pending[0]
	a.pending = a.pending[1:]
	a.inflight++
	d.dev.Dispatch(cmd)
	a.latencySum += cmd.Dispatched.Sub(cmd.Submitted)
	a.latencyN++
	d.bus.Instant(obs.CatAccel, "dispatch", cmd.Owner, int64(cmd.ID), d.dev.Config().Name, cmd.Kind)
	d.bus.Observe("accel.dispatch_latency", cmd.Owner, d.dev.Config().Name, cmd.Dispatched.Sub(cmd.Submitted))
	d.feedWatchdog()
}

// pump advances the driver's scheduling state machine. It is invoked after
// every submit, completion, and box transition.
func (d *Driver) pump() {
	d.settleBalloonBill()
	d.led.Refresh()
	switch d.phase {
	case PhaseNone:
		d.pumpNone()
	case PhaseDrainOthers:
		if d.dev.Busy() == 0 {
			d.beginServe()
		}
	case PhaseServe:
		d.pumpServe()
	case PhaseDrainBox:
		if d.activeBox.inflight == 0 {
			d.closeBalloon()
		}
	}
}

func (d *Driver) pumpNone() {
	// Work-conserving fair multiplexing: whenever the device can accept a
	// command (execution slot or ring entry), dispatch from the
	// minimum-credit app. Commands of different apps freely overlap and
	// queue behind each other in the hardware ring — exactly the Fig. 3(b)
	// entanglement and the §6.3 "excessive draining time" that balloons
	// must later pay for.
	for d.dev.FreeSlots() > 0 {
		other := d.led.Pick(false)
		box := d.led.Pick(true)
		// Fair choice among principals; a sandboxed app competes with its
		// balloon-inclusive credit.
		if box != nil && (other == nil || box.Credit <= other.Credit) {
			if other == nil && !d.led.Deserves(box) {
				// Competitors are between requests but ahead on credit:
				// hold the balloon back (briefly) rather than seizing the
				// device and making their next requests eat a drain.
				d.armGrace()
			} else {
				d.openBalloon(box)
				return
			}
		}
		if other == nil {
			return
		}
		d.dispatch(other)
	}
}

// armGrace schedules the starvation backstop: if nobody else has produced
// demand by then, the waiting sandbox gets the device regardless of credit.
func (d *Driver) armGrace() {
	if d.graceArm.Pending() {
		return
	}
	d.graceArm = d.eng.After(graceDelay, func(sim.Time) {
		if d.phase != PhaseNone {
			return
		}
		box := d.led.Pick(true)
		if box == nil {
			return
		}
		// Competitors woke up in the meantime (pending or still executing):
		// their next completion or submission re-drives admission; the
		// backstop only covers a fully silent device.
		for _, a := range d.led.Apps() {
			if !a.Boxed && a.busy() {
				d.pump()
				return
			}
		}
		d.openBalloon(box)
	})
}

func (d *Driver) openBalloon(a *appState) {
	d.activeBox = a
	d.lastBill = d.eng.Now()
	if d.dev.Busy() == 0 {
		d.beginServe()
		return
	}
	d.setPhase(PhaseDrainOthers) // phase 1: hold everything back
}

func (d *Driver) beginServe() {
	d.settleBalloonBill()
	d.setPhase(PhaseServe)
	// Power-state virtualization (§4.1): stash the shared state, restore
	// the sandbox's own operating point.
	d.othersState = d.dev.State()
	d.dev.Restore(d.activeBox.state)
	if d.cbs.BoxResident != nil {
		d.cbs.BoxResident(d.activeBox.ID, true)
	}
	d.pumpServe()
}

func (d *Driver) pumpServe() {
	a := d.activeBox
	// Phase 2–3: flush the sandbox's backlog and serve it exclusively.
	for d.dev.FreeSlots() > 0 && len(a.pending) > 0 {
		d.dispatch(a)
	}
	if len(a.pending) == 0 && a.inflight == 0 {
		// The sandbox went idle: pay-as-you-go says hand the device back.
		d.closeBalloon()
		return
	}
	// Phase 4 trigger: the scheduling policy decides others deserve the
	// device once the sandbox's credit is no longer minimal.
	if min, ok := d.led.MinOther(a); ok && a.Credit > min {
		d.setPhase(PhaseDrainBox)
		if a.inflight == 0 {
			d.closeBalloon()
		}
	}
}

// closeBalloon is the phase-5 transition: save the sandbox's virtual power
// state, restore the shared one, end residency, and flush others.
func (d *Driver) closeBalloon() {
	d.settleBalloonBill()
	a := d.activeBox
	a.state = d.dev.State()
	d.dev.Restore(d.othersState)
	d.setPhase(PhaseNone)
	d.activeBox = nil
	if d.cbs.BoxResident != nil {
		d.cbs.BoxResident(a.ID, false)
	}
	d.pumpNone()
}
