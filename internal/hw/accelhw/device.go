// Package accelhw models asynchronous command-executing accelerators (GPU,
// DSP) behind a single power rail.
//
// The model reproduces the "blurry request boundary" entanglement cause of
// the paper's §2.3: the device executes up to Slots commands concurrently,
// the CPU-side driver only learns about completions via (simulated)
// interrupts, and the power of temporally overlapping commands merges on the
// shared rail (Fig. 3b). An optional DVFS governor adds lingering power
// state on top.
package accelhw

import (
	"fmt"
	"math"
	"sort"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

// Config describes an accelerator device.
type Config struct {
	Name string

	// Slots is the device's total command capacity: commands the driver
	// has dispatched that have not yet completed. Up to ExecWidth of them
	// execute concurrently; the rest wait in the hardware ring buffer.
	// Draining a temporal balloon must wait for all of them — the depth of
	// the ring is what makes drains long under a saturating competitor
	// (§6.3 "excessive draining time").
	Slots int

	// ExecWidth is the execution pipeline width. Zero means Slots (no
	// ring beyond the executing commands).
	ExecWidth int

	// FreqsMHz lists operating points, ascending. A slot executing at the
	// top operating point retires WorkPerSecAtTop work units per second;
	// the rate scales linearly with frequency.
	FreqsMHz        []float64
	WorkPerSecAtTop float64

	// ShareFactor is the per-slot rate multiplier when more than one slot
	// is busy, modelling shared-resource contention inside the device.
	ShareFactor float64

	// IdleW is drawn by the powered-on idle device. A command's dynamic
	// power is Command.DynW at the top operating point, scaled linearly
	// with frequency.
	IdleW power.Watts

	// Governor parameters; zero GovernorWindow pins InitialFreqIdx.
	GovernorWindow sim.Duration
	UpThreshold    float64
	DownThreshold  float64
	InitialFreqIdx int
}

// GPUConfig models the PowerVR SGX544MP of the paper's AM57x platform.
func GPUConfig() Config {
	return Config{
		Name:            "gpu",
		Slots:           8,
		ExecWidth:       2,
		FreqsMHz:        []float64{200, 320, 450},
		WorkPerSecAtTop: 1e6, // work units/s per slot at 450 MHz
		ShareFactor:     0.85,
		IdleW:           0.25,
		GovernorWindow:  30 * sim.Millisecond,
		// Mobile GPU governors are latency-greedy: they ramp on moderate
		// load (a single serial client keeps one of two pipes busy).
		UpThreshold:    0.45,
		DownThreshold:  0.15,
		InitialFreqIdx: 0,
	}
}

// AdrenoConfig models the Qualcomm Adreno 420 of the paper's second GPU
// platform (Nexus 6): wider execution, deeper ring, more operating points,
// higher dynamic range than the SGX544.
func AdrenoConfig() Config {
	return Config{
		Name:            "gpu",
		Slots:           16,
		ExecWidth:       4,
		FreqsMHz:        []float64{200, 300, 420, 600},
		WorkPerSecAtTop: 2.4e6,
		ShareFactor:     0.9,
		IdleW:           0.35,
		GovernorWindow:  20 * sim.Millisecond,
		UpThreshold:     0.45,
		DownThreshold:   0.15,
		InitialFreqIdx:  0,
	}
}

// DSPConfig models the TI C66x DSP (fixed clock).
func DSPConfig() Config {
	return Config{
		Name:            "dsp",
		Slots:           4,
		ExecWidth:       2,
		FreqsMHz:        []float64{600},
		WorkPerSecAtTop: 1e6,
		ShareFactor:     0.90,
		IdleW:           0.35,
		InitialFreqIdx:  0,
	}
}

func (c Config) validate() error {
	if c.Slots <= 0 {
		return fmt.Errorf("accelhw %q: need at least one slot", c.Name)
	}
	if c.ExecWidth < 0 || c.ExecWidth > c.Slots {
		return fmt.Errorf("accelhw %q: ExecWidth must be in [0, Slots]", c.Name)
	}
	if len(c.FreqsMHz) == 0 {
		return fmt.Errorf("accelhw %q: need at least one operating point", c.Name)
	}
	for i := 1; i < len(c.FreqsMHz); i++ {
		if c.FreqsMHz[i] <= c.FreqsMHz[i-1] {
			return fmt.Errorf("accelhw %q: FreqsMHz must ascend", c.Name)
		}
	}
	if c.WorkPerSecAtTop <= 0 {
		return fmt.Errorf("accelhw %q: WorkPerSecAtTop must be positive", c.Name)
	}
	if c.ShareFactor <= 0 || c.ShareFactor > 1 {
		return fmt.Errorf("accelhw %q: ShareFactor must be in (0,1]", c.Name)
	}
	if c.InitialFreqIdx < 0 || c.InitialFreqIdx >= len(c.FreqsMHz) {
		return fmt.Errorf("accelhw %q: InitialFreqIdx out of range", c.Name)
	}
	return nil
}

// Command is one unit of offloaded work. The kernel driver fills Owner and
// the timestamps; the device consumes Work and DynW.
type Command struct {
	ID    uint64
	Owner int     // app identifier, assigned by the kernel
	Kind  string  // workload-defined type label (same type ⇒ same signature)
	Work  float64 // work units to retire
	DynW  power.Watts

	Submitted  sim.Time // app → driver
	Dispatched sim.Time // driver → device
	Started    sim.Time // execution begins (leaves the ring)
	Completed  sim.Time // device interrupt

	// Retries counts how many times a kernel watchdog has resubmitted the
	// command after a device reset.
	Retries int

	remaining float64
	hung      bool
}

// Device is a simulated accelerator.
type Device struct {
	eng *sim.Engine
	//psbox:allow-snapshotstate construction-time config; identical by scenario reconstruction under the replay-twin contract
	cfg  Config
	rail *power.Rail

	freqIdx    int
	execWidth  int
	running    []*Command // executing
	ring       []*Command // dispatched, waiting for an execution slot
	completion map[*Command]sim.Handle
	lastAdv    sim.Time

	windowStart sim.Time
	busyAccum   sim.Duration // busy slot-time

	hangNext bool
	resets   uint64

	onComplete   []func(*Command)
	onFreqChange []func(oldIdx, newIdx int)
}

// New builds a device and starts its governor if configured.
func New(eng *sim.Engine, cfg Config) (*Device, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Device{
		eng:        eng,
		cfg:        cfg,
		freqIdx:    cfg.InitialFreqIdx,
		execWidth:  cfg.ExecWidth,
		completion: make(map[*Command]sim.Handle),
		lastAdv:    eng.Now(),
	}
	if d.execWidth == 0 {
		d.execWidth = cfg.Slots
	}
	d.rail = power.NewRail(eng, cfg.Name, cfg.IdleW)
	d.windowStart = eng.Now()
	if cfg.GovernorWindow > 0 {
		eng.After(cfg.GovernorWindow, d.governorTick)
	}
	return d, nil
}

// MustNew is New for statically valid configurations.
func MustNew(eng *sim.Engine, cfg Config) *Device {
	d, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Rail exposes the device's metering scope.
func (d *Device) Rail() *power.Rail { return d.rail }

// Config returns the configuration the device was built with.
func (d *Device) Config() Config { return d.cfg }

// IdlePower reports the power drawn by the idle device.
func (d *Device) IdlePower() power.Watts { return d.cfg.IdleW }

// Busy reports how many slots are executing.
func (d *Device) Busy() int { return len(d.running) + len(d.ring) }

// Executing reports how many commands are actually executing (≤ the
// execution width).
func (d *Device) Executing() int { return len(d.running) }

// ExecWidth reports the execution pipeline width.
func (d *Device) ExecWidth() int { return d.execWidth }

// FreeSlots reports how many commands may still be dispatched (ring plus
// execution capacity).
func (d *Device) FreeSlots() int { return d.cfg.Slots - d.Busy() }

// InFlight returns the commands inside the device — executing plus ringed
// (freshly allocated slice; safe to retain).
func (d *Device) InFlight() []*Command {
	out := make([]*Command, 0, len(d.running)+len(d.ring))
	out = append(out, d.running...)
	return append(out, d.ring...)
}

// FreqIdx reports the current operating point.
func (d *Device) FreqIdx() int { return d.freqIdx }

// OnComplete registers a completion interrupt handler.
func (d *Device) OnComplete(fn func(*Command)) { d.onComplete = append(d.onComplete, fn) }

// OnFreqChange registers an operating-point change callback.
func (d *Device) OnFreqChange(fn func(oldIdx, newIdx int)) {
	d.onFreqChange = append(d.onFreqChange, fn)
}

// FreqState is the device's virtualizable operating power state.
type FreqState struct {
	FreqIdx int
}

// State captures the virtualizable power state (§4.1).
func (d *Device) State() FreqState { return FreqState{FreqIdx: d.freqIdx} }

// Restore reinstates a captured power state.
func (d *Device) Restore(s FreqState) {
	if s.FreqIdx < 0 || s.FreqIdx >= len(d.cfg.FreqsMHz) {
		panic(fmt.Sprintf("accelhw %s: restore freq %d out of range", d.cfg.Name, s.FreqIdx))
	}
	d.setFreq(s.FreqIdx)
	d.windowStart = d.eng.Now()
	d.busyAccum = 0
}

// Dispatch starts executing c. The caller (the kernel driver) must respect
// FreeSlots; dispatching to a full device panics, as real hardware would
// overflow its ring buffer.
func (d *Device) Dispatch(c *Command) {
	if d.Busy() >= d.cfg.Slots {
		panic(fmt.Sprintf("accelhw %s: dispatch to full device", d.cfg.Name))
	}
	if c.Work <= 0 {
		panic(fmt.Sprintf("accelhw %s: command %d with non-positive work", d.cfg.Name, c.ID))
	}
	d.advance()
	c.Dispatched = d.eng.Now()
	c.remaining = c.Work
	c.hung = false
	if d.hangNext {
		d.hangNext = false
		c.hung = true
	}
	if len(d.running) < d.execWidth {
		c.Started = d.eng.Now()
		d.running = append(d.running, c)
		d.reschedule()
	} else {
		d.ring = append(d.ring, c)
	}
	d.updatePower()
}

// InjectHang wedges the device: the oldest executing command stops retiring
// work while keeping its slot and its dynamic power (a stuck shader still
// burns), and it will never raise a completion interrupt. With no command
// executing, the next dispatched one hangs instead. Only a Reset clears the
// condition. It reports whether a command was wedged immediately.
func (d *Device) InjectHang() bool {
	d.advance()
	if len(d.running) == 0 {
		d.hangNext = true
		return false
	}
	c := d.running[0]
	c.hung = true
	d.eng.Cancel(d.completion[c])
	d.reschedule()
	return true
}

// Hung reports how many in-device commands are wedged.
func (d *Device) Hung() int {
	n := 0
	for _, c := range d.running {
		if c.hung {
			n++
		}
	}
	return n
}

// Resets reports how many times the device has been reset.
func (d *Device) Resets() uint64 { return d.resets }

// Reset reinitializes the device, as a kernel watchdog would after
// detecting a stuck command: every in-flight command (executing or ringed)
// is aborted and returned in dispatch order for the driver to resubmit, the
// hang condition is cleared, and the device cold-starts at its initial
// operating point.
func (d *Device) Reset() []*Command {
	d.advance()
	aborted := make([]*Command, 0, len(d.running)+len(d.ring))
	aborted = append(aborted, d.running...)
	aborted = append(aborted, d.ring...)
	sort.Slice(aborted, func(i, j int) bool { return aborted[i].ID < aborted[j].ID })
	for _, c := range aborted {
		d.eng.Cancel(d.completion[c])
		delete(d.completion, c)
		c.hung = false
		c.remaining = 0
	}
	d.running = d.running[:0]
	d.ring = d.ring[:0]
	d.hangNext = false
	d.resets++
	d.setFreq(d.cfg.InitialFreqIdx)
	d.windowStart = d.eng.Now()
	d.busyAccum = 0
	d.updatePower()
	return aborted
}

// slotRate is the work-unit retire rate per busy slot right now.
func (d *Device) slotRate(nBusy int) float64 {
	if nBusy <= 0 {
		return 0
	}
	rate := d.cfg.WorkPerSecAtTop * d.cfg.FreqsMHz[d.freqIdx] / d.cfg.FreqsMHz[len(d.cfg.FreqsMHz)-1]
	if nBusy > 1 {
		rate *= d.cfg.ShareFactor
	}
	return rate
}

// advance charges progress to every running command up to now.
func (d *Device) advance() {
	now := d.eng.Now()
	dt := now.Sub(d.lastAdv).Seconds()
	if dt > 0 {
		rate := d.slotRate(len(d.running))
		for _, c := range d.running {
			if c.hung {
				continue // a wedged command retires nothing
			}
			c.remaining -= float64(rate * dt)
		}
		d.busyAccum += sim.Duration(float64(now.Sub(d.lastAdv)) * float64(len(d.running)))
	}
	d.lastAdv = now
}

// reschedule recomputes each running command's completion event.
func (d *Device) reschedule() {
	rate := d.slotRate(len(d.running))
	for _, c := range d.running {
		d.eng.Cancel(d.completion[c])
		if c.hung {
			continue // never completes until a reset
		}
		rem := c.remaining
		if rem < 0 {
			rem = 0
		}
		durNs := int64(math.Ceil(rem / rate * 1e9))
		cc := c
		d.completion[c] = d.eng.After(sim.Duration(durNs), func(sim.Time) { d.complete(cc) })
	}
}

func (d *Device) complete(c *Command) {
	d.advance()
	if c.remaining > 1e-6 {
		// A frequency drop stretched the command; reschedule happened, but a
		// stale event may still fire if cancellation raced. Treat as stale.
		d.reschedule()
		return
	}
	delete(d.completion, c)
	for i, rc := range d.running {
		if rc == c {
			d.running = append(d.running[:i], d.running[i+1:]...)
			break
		}
	}
	c.Completed = d.eng.Now()
	// Pull the next ring entry into the freed execution slot.
	if len(d.ring) > 0 && len(d.running) < d.execWidth {
		next := d.ring[0]
		d.ring = d.ring[1:]
		next.Started = d.eng.Now()
		d.running = append(d.running, next)
	}
	d.reschedule()
	d.updatePower()
	for _, fn := range d.onComplete {
		fn(c)
	}
}

func (d *Device) updatePower() {
	p := d.cfg.IdleW
	scale := d.cfg.FreqsMHz[d.freqIdx] / d.cfg.FreqsMHz[len(d.cfg.FreqsMHz)-1]
	for _, c := range d.running {
		p += float64(c.DynW * scale)
	}
	d.rail.Set(p)
}

func (d *Device) setFreq(idx int) {
	if idx == d.freqIdx {
		return
	}
	d.advance()
	old := d.freqIdx
	d.freqIdx = idx
	d.reschedule()
	d.updatePower()
	for _, fn := range d.onFreqChange {
		fn(old, idx)
	}
}

// Utilization reports busy-slot fraction of the current governor window.
func (d *Device) Utilization() float64 {
	now := d.eng.Now()
	span := now.Sub(d.windowStart)
	if span <= 0 {
		return 0
	}
	busy := d.busyAccum + sim.Duration(float64(now.Sub(d.lastAdv))*float64(len(d.running)))
	return float64(busy) / float64(int64(span)*int64(d.execWidth))
}

func (d *Device) governorTick(now sim.Time) {
	d.advance() // fold the running stretch into the closing window
	util := d.Utilization()
	switch {
	case util > d.cfg.UpThreshold && d.freqIdx < len(d.cfg.FreqsMHz)-1:
		d.setFreq(d.freqIdx + 1)
	case util < d.cfg.DownThreshold && d.freqIdx > 0:
		d.setFreq(d.freqIdx - 1)
	}
	d.windowStart = now
	d.busyAccum = 0
	d.eng.After(d.cfg.GovernorWindow, d.governorTick)
}
