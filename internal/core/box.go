// Package core implements the power sandbox (psbox) principal of §3: the
// only way for an app to observe power. A Box encloses one app, binds to a
// set of hardware metering scopes, and exposes a virtual power meter whose
// readings are insulated from concurrent apps — their only possible
// contribution is idle power. The kernel-side enforcement (spatial and
// temporal resource balloons, loan billing) lives in internal/kernel; this
// package owns the box lifecycle, the virtual meters, and the CPU
// power-state virtualization.
package core

import (
	"fmt"
	"sort"

	"psbox/internal/hw/cpu"
	"psbox/internal/hw/power"
	"psbox/internal/kernel"
	"psbox/internal/meter"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// HW names a bindable hardware scope.
type HW string

// The hardware scopes of the paper's two platforms, plus the §7 extension
// scopes.
const (
	HWCPU  HW = "cpu"
	HWGPU  HW = "gpu"
	HWDSP  HW = "dsp"
	HWWiFi HW = "wifi"

	// HWDisplay (§7(1)): OLED power is additive per pixel with no
	// lingering state, so the sandbox observes its exact contribution
	// directly — no balloons needed.
	HWDisplay HW = "display"

	// HWGPS (§7(2)): operating power is concurrency-independent and
	// revealed directly; off/suspended (and others' acquisitions) are
	// hidden behind the off power, avoiding both a per-sandbox cold
	// restart and a usage side channel.
	HWGPS HW = "gps"

	// HWDRAM (§7(4)): DIMM power follows the aggregate access stream. In
	// this model the CPU is the only DRAM master, so the CPU's spatial
	// balloons already bound the stream: the scope requires HWCPU in the
	// same sandbox, and its meter is resident exactly when the CPU
	// balloon is.
	HWDRAM HW = "dram"
)

// Manager owns all power sandboxes of one simulated system and routes the
// kernel's residency events to them. It is the OS-side psbox service.
type Manager struct {
	k *kernel.Kernel
	m *meter.Meter

	boxes map[int]*Box // appID → box (one box per app)

	// othersCPUState is the CPU power state shared by everything outside
	// the currently resident sandbox (§4.1: one virtual copy per psbox
	// plus one for the rest).
	othersCPUState cpu.GovState
	cpuSaved       bool

	// DisableStateVirt turns off CPU power-state virtualization; the
	// ablation study uses it to show the Fig. 3(c) lingering-state leak
	// returning into sandbox observations.
	DisableStateVirt bool

	// resident tracks which app (if any) currently holds each scope's
	// balloon; exclViolations records every instant the exclusivity
	// invariant broke, for the Checker to drain.
	resident       map[HW]int
	exclViolations []string

	// Observability (nil-safe; the bus snapshots itself).
	bus *obs.Bus
}

// SetBus routes sandbox lifecycle and residency events to a bus.
func (mgr *Manager) SetBus(b *obs.Bus) { mgr.bus = b }

// NewManager builds the psbox service over a kernel and its meter.
func NewManager(k *kernel.Kernel, m *meter.Meter) *Manager {
	mgr := &Manager{k: k, m: m, boxes: make(map[int]*Box), resident: make(map[HW]int)}
	k.OnResident(string(HWCPU), mgr.onCPUResident)
	for _, dev := range k.AccelNames() {
		name := dev
		k.OnResident(name, func(appID int, r bool) { mgr.onDevResident(HW(name), appID, r) })
	}
	// The WiFi scope needs no residency routing for metering: its virtual
	// meter reads the per-sandbox virtual NIC (§5), which by construction
	// sees only the enclosed app's frames and tail. The balloon events
	// still feed the exclusivity invariant.
	if n := k.Net(); n != nil {
		k.OnResident(n.NIC().Config().Name, func(appID int, r bool) { mgr.trackResidency(HWWiFi, appID, r) })
	}
	return mgr
}

// trackResidency maintains the balloon-exclusivity invariant record: a
// scope's balloon must never be held by two apps at once.
func (mgr *Manager) trackResidency(h HW, appID int, r bool) {
	if r {
		mgr.bus.Instant(obs.CatBox, "resident-begin", appID, 1, "", string(h))
	} else {
		mgr.bus.Instant(obs.CatBox, "resident-end", appID, 0, "", string(h))
	}
	cur, held := mgr.resident[h]
	if r {
		if held && cur != appID {
			mgr.exclViolations = append(mgr.exclViolations, fmt.Sprintf(
				"exclusivity: app %d became resident on %s at %v while app %d still holds it",
				appID, h, mgr.k.Engine().Now(), cur))
		}
		mgr.resident[h] = appID
		return
	}
	if held && cur == appID {
		delete(mgr.resident, h)
	}
}

// takeExclusivityViolations drains the recorded exclusivity violations.
func (mgr *Manager) takeExclusivityViolations() []string {
	v := mgr.exclViolations
	mgr.exclViolations = nil
	return v
}

// Box is one power sandbox (Listing 1): created around an app, bound to
// hardware scopes, entered and left at the app's liberty.
type Box struct {
	mgr *Manager
	app *kernel.App
	hw  []HW

	entered bool
	enters  uint64
	vmeters map[HW]*VirtualMeter

	// cpuState is the box's virtual CPU power state (§4.1), restored at
	// every spatial-balloon residency.
	cpuState cpu.GovState

	// Virtual DVFS governor: the sandbox's operating point must follow the
	// load of *its* vertical environment, not the co-runners'. Its
	// utilization signal is the box's residency fraction per governor
	// window — during residency the box's busiest core is busy, outside it
	// the box's environment is idle.
	cpuResident   bool
	cpuResSince   sim.Time
	cpuResAccum   sim.Duration
	cpuGovArm     sim.Handle
	cpuLastDemand sim.Duration
}

// Create builds a psbox for app bound to the given hardware scopes
// (psbox_create). Each app has at most one box; the box starts exited.
func (mgr *Manager) Create(app *kernel.App, hw ...HW) (*Box, error) {
	if len(hw) == 0 {
		return nil, fmt.Errorf("psbox: need at least one hardware scope")
	}
	if _, dup := mgr.boxes[app.ID]; dup {
		return nil, fmt.Errorf("psbox: app %s already has a sandbox", app.Name)
	}
	seen := map[HW]bool{}
	b := &Box{mgr: mgr, app: app, vmeters: make(map[HW]*VirtualMeter)}
	for _, h := range hw {
		if seen[h] {
			return nil, fmt.Errorf("psbox: duplicate scope %q", h)
		}
		seen[h] = true
		idle, err := mgr.idlePower(h)
		if err != nil {
			return nil, err
		}
		// The CPU scope meters the CPU's rail, whatever the platform
		// names it.
		rail := string(h)
		if h == HWCPU {
			rail = mgr.k.CPU().Rail().Name()
		}
		if !mgr.m.HasRail(rail) {
			return nil, fmt.Errorf("psbox: scope %q has no metered rail", h)
		}
		// A dropout on the scope's DAQ channel blinds every observation
		// derived from it — including the virtualized per-app rails, which
		// are reconstructed from the same samples.
		gaps := func(a, bnd sim.Time) []obs.Gap { return mgr.m.Dropouts(rail, a, bnd) }
		switch h {
		case HWWiFi:
			// The sandbox observes its own virtual NIC rail; it is
			// "resident" on that rail for all entered time.
			b.vmeters[h] = newVirtualMeter(mgr.k.Net().VirtualRail(app.ID), idle, mgr.m.Period(), gaps)
		case HWDisplay:
			// Exact per-app attribution (no entanglement to insulate).
			b.vmeters[h] = newVirtualMeter(mgr.k.Display().OwnerRail(app.ID), idle, mgr.m.Period(), gaps)
		case HWGPS:
			// The observable-power rail already applies the §7 hiding
			// rule for off/suspended state.
			b.vmeters[h] = newVirtualMeter(mgr.k.GPS().OwnerRail(app.ID), idle, mgr.m.Period(), gaps)
		default:
			b.vmeters[h] = newVirtualMeter(mgr.m.Rail(rail), idle, mgr.m.Period(), gaps)
		}
		b.hw = append(b.hw, h)
	}
	sort.Slice(b.hw, func(i, j int) bool { return b.hw[i] < b.hw[j] })
	if seen[HWDRAM] && !seen[HWCPU] {
		return nil, fmt.Errorf("psbox: the dram scope requires the cpu scope in the same sandbox")
	}
	b.cpuState = cpu.GovState{FreqIdx: mgr.k.CPU().Config().InitialFreqIdx}
	mgr.boxes[app.ID] = b
	return b, nil
}

// MustCreate is Create for statically valid arguments.
func (mgr *Manager) MustCreate(app *kernel.App, hw ...HW) *Box {
	b, err := mgr.Create(app, hw...)
	if err != nil {
		panic(err)
	}
	return b
}

func (mgr *Manager) idlePower(h HW) (power.Watts, error) {
	switch h {
	case HWCPU:
		return mgr.k.CPU().IdlePower(), nil
	case HWWiFi:
		if mgr.k.Net() == nil {
			return 0, fmt.Errorf("psbox: no NIC attached")
		}
		return mgr.k.Net().NIC().IdlePower(), nil
	case HWDisplay:
		if mgr.k.Display() == nil {
			return 0, fmt.Errorf("psbox: no display attached")
		}
		return 0, nil // an app showing nothing contributes nothing
	case HWGPS:
		if mgr.k.GPS() == nil {
			return 0, fmt.Errorf("psbox: no GPS attached")
		}
		return mgr.k.GPS().IdlePower(), nil
	case HWDRAM:
		if mgr.k.DRAM() == nil {
			return 0, fmt.Errorf("psbox: no DRAM channel attached")
		}
		return mgr.k.DRAM().IdlePower(), nil
	default:
		if !mgr.k.HasAccel(string(h)) {
			return 0, fmt.Errorf("psbox: unknown hardware scope %q", h)
		}
		return mgr.k.Accel(string(h)).Device().IdlePower(), nil
	}
}

// Box returns an app's sandbox, nil if none.
func (mgr *Manager) Box(appID int) *Box { return mgr.boxes[appID] }

// Boxes lists every sandbox in ascending app-ID order.
func (mgr *Manager) Boxes() []*Box {
	ids := make([]int, 0, len(mgr.boxes))
	for id := range mgr.boxes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*Box, 0, len(ids))
	for _, id := range ids {
		out = append(out, mgr.boxes[id])
	}
	return out
}

// onCPUResident handles spatial-balloon residency: power-state
// virtualization plus virtual-meter bracketing.
func (mgr *Manager) onCPUResident(appID int, resident bool) {
	mgr.trackResidency(HWCPU, appID, resident)
	b, ok := mgr.boxes[appID]
	if !ok {
		return
	}
	now := mgr.k.Engine().Now()
	c := mgr.k.CPU()
	if !mgr.DisableStateVirt {
		if resident {
			mgr.othersCPUState = c.State()
			mgr.cpuSaved = true
			c.Restore(b.cpuState)
			// While the balloon is resident the box's virtual governor
			// owns the operating point; the hardware governor must not
			// adjust it from entangled utilization.
			c.SuspendGovernor()
		} else {
			b.cpuState = c.State()
			c.ResumeGovernor()
			if mgr.cpuSaved {
				c.Restore(mgr.othersCPUState)
			}
		}
	}
	// Residency accounting feeds the virtual governor.
	if resident {
		b.cpuResident = true
		b.cpuResSince = now
	} else if b.cpuResident {
		b.cpuResident = false
		b.cpuResAccum += now.Sub(b.cpuResSince)
	}
	if vm, bound := b.vmeters[HWCPU]; bound {
		vm.setResident(now, resident)
	}
	// The DRAM scope rides the CPU balloon: while it is open, all memory
	// traffic belongs to the sandbox.
	if vm, bound := b.vmeters[HWDRAM]; bound {
		vm.setResident(now, resident)
	}
}

// onDevResident handles temporal-balloon residency on accelerators and the
// NIC (their drivers already virtualize the device power state).
func (mgr *Manager) onDevResident(h HW, appID int, resident bool) {
	mgr.trackResidency(h, appID, resident)
	b, ok := mgr.boxes[appID]
	if !ok {
		return
	}
	if vm, bound := b.vmeters[h]; bound {
		vm.setResident(mgr.k.Engine().Now(), resident)
	}
}

// App returns the enclosed app.
func (b *Box) App() *kernel.App { return b.app }

// HW lists the bound scopes in stable order.
func (b *Box) HW() []HW { return b.hw }

// Entered reports whether the app is currently inside its sandbox.
func (b *Box) Entered() bool { return b.entered }

// Enter activates the sandbox (psbox_enter): the kernel starts enforcing
// resource-balloon boundaries for the app on every bound scope, and the
// virtual power meter starts producing observations.
func (b *Box) Enter() {
	if b.entered {
		return
	}
	b.entered = true
	b.enters++
	b.mgr.bus.Instant(obs.CatBox, "enter", b.app.ID, int64(b.enters), "", b.app.Name)
	b.mgr.bus.Count("box.enters", b.app.ID, "", 1)
	now := b.mgr.k.Engine().Now()
	for _, h := range b.hw {
		b.vmeters[h].enter(now)
		switch h {
		case HWWiFi, HWDisplay, HWGPS:
			// Per-app virtual/attribution rails: resident across the
			// entire entered span; no balloons involved.
			b.vmeters[h].setResident(now, true)
		}
	}
	// Activate enforcement last: activation may open a balloon immediately,
	// and the meters must be listening by then.
	for _, h := range b.hw {
		switch h {
		case HWCPU:
			if !b.mgr.DisableStateVirt {
				b.armVirtualGovernor()
			}
			b.mgr.k.Scheduler().ActivateGroup(b.app.ID)
		case HWWiFi:
			b.mgr.k.Net().BoxEnter(b.app.ID)
		case HWDisplay, HWGPS:
			// No enforcement needed: these scopes are entanglement-free
			// (§7), the attribution rails are exact by construction.
		case HWDRAM:
			// Enforced by the CPU scope's spatial balloons (required at
			// Create).
		default:
			b.mgr.k.Accel(string(h)).BoxEnter(b.app.ID)
		}
	}
}

// Leave deactivates the sandbox (psbox_leave): enforcement stops, the app
// runs at full speed again, and the virtual meter stops accumulating.
// Observations already collected remain readable; the app's adaptation
// decisions remain valid because its vertical environment was preserved.
func (b *Box) Leave() {
	if !b.entered {
		return
	}
	for _, h := range b.hw {
		switch h {
		case HWCPU:
			b.mgr.k.Scheduler().DeactivateGroup(b.app.ID)
		case HWWiFi:
			b.mgr.k.Net().BoxLeave(b.app.ID)
		case HWDisplay, HWGPS, HWDRAM:
			// Nothing to tear down.
		default:
			b.mgr.k.Accel(string(h)).BoxLeave(b.app.ID)
		}
	}
	now := b.mgr.k.Engine().Now()
	for _, h := range b.hw {
		b.vmeters[h].leave(now)
	}
	b.mgr.k.Engine().Cancel(b.cpuGovArm)
	b.cpuResAccum = 0
	b.entered = false
	b.mgr.bus.Instant(obs.CatBox, "leave", b.app.ID, int64(b.enters), "", b.app.Name)
}

// armVirtualGovernor starts the box's virtual DVFS governor, paced like
// the hardware one.
func (b *Box) armVirtualGovernor() {
	cfg := b.mgr.k.CPU().Config()
	if cfg.GovernorWindow <= 0 {
		return
	}
	b.cpuLastDemand = b.app.TotalDemand()
	b.cpuGovArm = b.mgr.k.Engine().After(cfg.GovernorWindow, b.virtualGovTick)
}

// virtualGovTick evaluates the utilization of the box's vertical
// environment over the closing window and steps its virtual operating
// point, mirroring the ondemand policy. The signal reconstructs what the
// governor would have seen with the app alone: busy = the balloon's
// residency; idle = the app's *voluntary* idle only. Time the app spent
// runnable-but-unscheduled (demand − residency) is squeezed out — a
// saturating app looks 100% utilized no matter how little CPU the
// scheduler granted it, while a frame-paced app keeps its duty cycle.
func (b *Box) virtualGovTick(now sim.Time) {
	if !b.entered {
		return
	}
	c := b.mgr.k.CPU()
	cfg := c.Config()
	res := b.cpuResAccum
	if b.cpuResident {
		res += now.Sub(b.cpuResSince)
		b.cpuResSince = now
	}
	b.cpuResAccum = 0
	demand := b.app.TotalDemand()
	dDelta := demand - b.cpuLastDemand
	b.cpuLastDemand = demand
	wait := dDelta - res // involuntary waiting
	if wait < 0 {
		wait = 0
	}
	denom := cfg.GovernorWindow - wait
	var util float64
	if denom <= 0 {
		util = 1
	} else {
		util = res.Seconds() / denom.Seconds()
	}
	cur := b.cpuState.FreqIdx
	if b.cpuResident {
		cur = c.FreqIdx() // the live state is the box's while resident
	}
	switch {
	case util > cfg.UpThreshold && cur < c.TopFreqIdx():
		cur++
	case util < cfg.DownThreshold && cur > 0:
		cur--
	}
	b.mgr.bus.Instant(obs.CatBox, "virtual-gov", b.app.ID, int64(cur), "", b.app.Name)
	if b.cpuResident {
		if cur != c.FreqIdx() {
			c.SetFreqIdx(cur)
		}
	} else {
		b.cpuState.FreqIdx = cur
	}
	b.armVirtualGovernor()
}

// Read returns the accumulated energy observed by the box across all bound
// scopes (psbox_read): exact integration of the virtual power meter over
// all entered time.
func (b *Box) Read() power.Joules {
	now := b.mgr.k.Engine().Now()
	var e power.Joules
	for _, h := range b.hw {
		e += b.vmeters[h].Energy(now)
	}
	return e
}

// ReadDetail splits the box's observation (psbox_read) into DAQ-backed
// energy, degraded-mode estimated energy, and the number of meter dropout
// gaps the estimate bridged. est and gaps are zero in a healthy run; when
// the DAQ dropped samples, Read() = direct + est stays monotone and the
// caller can see exactly how much of it is model-based.
func (b *Box) ReadDetail() (direct, est power.Joules, gaps int) {
	now := b.mgr.k.Engine().Now()
	for _, h := range b.hw {
		d, e, g := b.vmeters[h].EnergyDetail(now)
		direct += d
		est += e
		gaps += g
	}
	return direct, est, gaps
}

// Degraded reports whether any part of the box's observation so far was
// estimated across meter dropout windows rather than DAQ-backed.
func (b *Box) Degraded() bool {
	_, _, gaps := b.ReadDetail()
	return gaps > 0
}

// ReadScope returns the accumulated energy of one bound scope.
func (b *Box) ReadScope(h HW) power.Joules {
	vm, ok := b.vmeters[h]
	if !ok {
		panic(fmt.Sprintf("psbox: scope %q not bound", h))
	}
	return vm.Energy(b.mgr.k.Engine().Now())
}

// Sample drains up to max new timestamped samples of one bound scope since
// the previous Sample call (psbox_sample). Timestamps come from the same
// clock the app reads via clock_gettime, so power maps onto software
// activity at the meter's resolution.
func (b *Box) Sample(h HW, max int) []power.Sample {
	vm, ok := b.vmeters[h]
	if !ok {
		panic(fmt.Sprintf("psbox: scope %q not bound", h))
	}
	return vm.Drain(b.mgr.k.Engine().Now(), max)
}

// SamplesBetween returns the virtual meter's samples of one scope over a
// time range, for offline analysis in experiments.
func (b *Box) SamplesBetween(h HW, from, to sim.Time) []power.Sample {
	vm, ok := b.vmeters[h]
	if !ok {
		panic(fmt.Sprintf("psbox: scope %q not bound", h))
	}
	return vm.SamplesBetween(from, to, nil)
}

// Enters reports how many times the box has been entered.
func (b *Box) Enters() uint64 { return b.enters }
