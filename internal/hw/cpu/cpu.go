// Package cpu models a multicore CPU cluster with a single measurable power
// rail and cluster-wide DVFS.
//
// The model deliberately reproduces the three entanglement causes of the
// paper's §2.3 as they apply to CPUs:
//
//   - spatial concurrency: all cores share one rail, and a constant rail/
//     uncore base power is drawn regardless of how many cores are active, so
//     the power of two co-running apps is not the sum of their solo powers
//     (Fig. 3a);
//   - lingering power state: an ondemand-style governor raises the cluster
//     frequency under load and decays it afterwards, so a workload's power
//     depends on what ran before it (Fig. 3c).
package cpu

import (
	"fmt"

	"psbox/internal/hw/power"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// Config describes a CPU cluster.
type Config struct {
	Name  string
	Cores int

	// FreqsMHz lists the operating points, ascending. ActiveW[i] is the
	// per-core power when executing at FreqsMHz[i].
	FreqsMHz []float64
	ActiveW  []power.Watts

	// IdleCoreW is drawn by a clock-gated idle core; RailBaseW is the
	// shared uncore/rail overhead drawn whenever the cluster is on.
	IdleCoreW power.Watts
	RailBaseW power.Watts

	// Governor parameters (ondemand-style). A zero GovernorWindow disables
	// the governor and pins the initial frequency.
	GovernorWindow sim.Duration
	UpThreshold    float64 // raise one step when window utilization exceeds this
	DownThreshold  float64 // lower one step when below this
	InitialFreqIdx int
}

// DefaultConfig models the 2×Cortex-A15 cluster of the paper's AM57x
// platform, tuned per DESIGN.md §5.
func DefaultConfig() Config {
	return Config{
		Name:           "cpu",
		Cores:          2,
		FreqsMHz:       []float64{600, 900, 1200, 1500},
		ActiveW:        []power.Watts{0.55, 0.90, 1.45, 2.05},
		IdleCoreW:      0.12,
		RailBaseW:      0.80,
		GovernorWindow: 20 * sim.Millisecond,
		UpThreshold:    0.80,
		DownThreshold:  0.30,
		InitialFreqIdx: 0,
	}
}

func (c Config) validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cpu %q: need at least one core", c.Name)
	}
	if len(c.FreqsMHz) == 0 || len(c.FreqsMHz) != len(c.ActiveW) {
		return fmt.Errorf("cpu %q: FreqsMHz and ActiveW must be non-empty and equal length", c.Name)
	}
	for i := 1; i < len(c.FreqsMHz); i++ {
		if c.FreqsMHz[i] <= c.FreqsMHz[i-1] {
			return fmt.Errorf("cpu %q: FreqsMHz must ascend", c.Name)
		}
	}
	if c.InitialFreqIdx < 0 || c.InitialFreqIdx >= len(c.FreqsMHz) {
		return fmt.Errorf("cpu %q: InitialFreqIdx out of range", c.Name)
	}
	return nil
}

// CPU is a simulated multicore cluster.
type CPU struct {
	eng *sim.Engine
	//psbox:allow-snapshotstate construction-time config; identical by scenario reconstruction under the replay-twin contract
	cfg  Config
	rail *power.Rail

	freqIdx   int
	busy      []bool
	busySince []sim.Time

	// Governor window accounting: per-core busy time accumulated since
	// windowStart, excluding still-running busy stretches (those are folded
	// in lazily).
	windowStart  sim.Time
	busyAccum    []sim.Duration
	govArmed     bool
	govSuspended bool

	// DVFS stall fault: while stallUntil is in the future, operating-point
	// changes are latched instead of applied; the latest request is applied
	// when the stall clears.
	stallUntil   sim.Time
	stallPending int // -1: nothing latched
	stallArm     sim.Handle
	stalls       uint64

	onFreqChange []func(oldIdx, newIdx int)

	// Observability (nil-safe; the bus snapshots itself).
	bus *obs.Bus
}

// SetBus routes DVFS transitions and stall events to a bus.
func (c *CPU) SetBus(b *obs.Bus) { c.bus = b }

// New builds a CPU and starts its governor (if configured).
func New(eng *sim.Engine, cfg Config) (*CPU, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &CPU{
		eng:          eng,
		cfg:          cfg,
		freqIdx:      cfg.InitialFreqIdx,
		busy:         make([]bool, cfg.Cores),
		busySince:    make([]sim.Time, cfg.Cores),
		busyAccum:    make([]sim.Duration, cfg.Cores),
		stallPending: -1,
	}
	c.rail = power.NewRail(eng, cfg.Name, c.currentPower())
	c.windowStart = eng.Now()
	if cfg.GovernorWindow > 0 {
		c.govArmed = true
		eng.After(cfg.GovernorWindow, c.governorTick)
	}
	return c, nil
}

// MustNew is New for configurations known statically valid.
func MustNew(eng *sim.Engine, cfg Config) *CPU {
	c, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Rail exposes the cluster's metering scope.
func (c *CPU) Rail() *power.Rail { return c.rail }

// Cores reports the core count.
func (c *CPU) Cores() int { return c.cfg.Cores }

// Config returns the configuration the CPU was built with.
func (c *CPU) Config() Config { return c.cfg }

// FreqIdx reports the current operating point index.
func (c *CPU) FreqIdx() int { return c.freqIdx }

// FreqMHz reports the current clock in MHz.
func (c *CPU) FreqMHz() float64 { return c.cfg.FreqsMHz[c.freqIdx] }

// CyclesPerSecond reports the execution rate a busy core sustains now.
func (c *CPU) CyclesPerSecond() float64 { return c.FreqMHz() * 1e6 }

// TopFreqIdx reports the highest operating point index.
func (c *CPU) TopFreqIdx() int { return len(c.cfg.FreqsMHz) - 1 }

// IdlePower reports the rail power when every core idles at the lowest
// operating point — the "idle power" fed to power sandboxes while they are
// scheduled out (§4.1).
func (c *CPU) IdlePower() power.Watts {
	return c.cfg.RailBaseW + float64(power.Watts(c.cfg.Cores)*c.cfg.IdleCoreW)
}

// OnFreqChange registers a callback invoked after every operating-point
// change. The kernel scheduler uses this to recompute in-flight completion
// times.
func (c *CPU) OnFreqChange(fn func(oldIdx, newIdx int)) {
	c.onFreqChange = append(c.onFreqChange, fn)
}

// SetCoreBusy marks a core executing (busy=true) or idle. The kernel calls
// this on every context switch to/from the idle task.
func (c *CPU) SetCoreBusy(core int, busy bool) {
	if core < 0 || core >= c.cfg.Cores {
		panic(fmt.Sprintf("cpu %s: core %d out of range", c.cfg.Name, core))
	}
	if c.busy[core] == busy {
		return
	}
	now := c.eng.Now()
	if busy {
		c.busySince[core] = now
	} else {
		from := c.busySince[core]
		if from < c.windowStart {
			from = c.windowStart
		}
		c.busyAccum[core] += now.Sub(from)
	}
	c.busy[core] = busy
	c.rail.Set(c.currentPower())
}

// SetFreqIdx pins the operating point directly. Power-state virtualization
// (§4.1) uses this to restore a sandbox's saved frequency at balloon switch.
func (c *CPU) SetFreqIdx(idx int) {
	if idx < 0 || idx >= len(c.cfg.FreqsMHz) {
		panic(fmt.Sprintf("cpu %s: freq index %d out of range", c.cfg.Name, idx))
	}
	c.setFreq(idx)
	// A direct set also restarts the governor window: cpufreq re-initializes
	// its accounting when a new policy is loaded.
	c.resetWindow()
}

// GovState is the virtualizable operating/idle power state of the cluster:
// the DVFS operating point. (The governor's window accumulators are reset at
// every restore, as cpufreq does when a policy is reloaded.)
type GovState struct {
	FreqIdx int
}

// State captures the cluster's virtualizable power state.
func (c *CPU) State() GovState { return GovState{FreqIdx: c.freqIdx} }

// Restore reinstates a previously captured power state.
func (c *CPU) Restore(s GovState) { c.SetFreqIdx(s.FreqIdx) }

func (c *CPU) currentPower() power.Watts {
	p := c.cfg.RailBaseW
	for _, b := range c.busy {
		if b {
			p += c.cfg.ActiveW[c.freqIdx]
		} else {
			p += c.cfg.IdleCoreW
		}
	}
	return p
}

// Stalled reports whether a DVFS transition stall is in effect.
func (c *CPU) Stalled() bool { return c.eng.Now() < c.stallUntil }

// Stalls reports how many stall faults have been injected.
func (c *CPU) Stalls() uint64 { return c.stalls }

// InjectDVFSStall wedges the frequency-transition path for d (fault
// injection: a voltage regulator handshake timing out, clock-tree PLL
// relock). Operating-point changes requested meanwhile — by the governor,
// by psbox power-state restores — are latched, and the latest one is
// applied when the stall clears. Overlapping injections extend the stall.
func (c *CPU) InjectDVFSStall(d sim.Duration) {
	if d <= 0 {
		return
	}
	c.stalls++
	c.bus.Instant(obs.CatDVFS, "stall-begin", 0, int64(d), c.cfg.Name, c.cfg.Name)
	c.bus.Count("dvfs.stalls", 0, c.cfg.Name, 1)
	until := c.eng.Now().Add(d)
	if until <= c.stallUntil {
		return
	}
	c.stallUntil = until
	c.eng.Cancel(c.stallArm)
	c.stallArm = c.eng.At(until, c.endStall)
}

func (c *CPU) endStall(sim.Time) {
	if c.eng.Now() < c.stallUntil {
		// An overlapping injection extended the stall after this event was
		// armed; the extension armed its own.
		return
	}
	pend := c.stallPending
	c.stallPending = -1
	c.bus.Instant(obs.CatDVFS, "stall-end", 0, int64(pend), c.cfg.Name, c.cfg.Name)
	if pend >= 0 {
		c.setFreq(pend)
	}
}

func (c *CPU) setFreq(idx int) {
	if c.Stalled() {
		c.stallPending = idx
		return
	}
	if idx == c.freqIdx {
		return
	}
	old := c.freqIdx
	// Fold running busy time into the window at the old frequency before
	// the rate changes; callbacks will recompute completions at the new one.
	c.foldBusy()
	c.freqIdx = idx
	c.rail.Set(c.currentPower())
	// Arg packs the transition (old index in the high half) so one scalar
	// captures both endpoints without per-event formatting.
	c.bus.Instant(obs.CatDVFS, "freq-change", 0, int64(old)<<32|int64(idx), c.cfg.Name, c.cfg.Name)
	c.bus.Count("dvfs.transitions", 0, c.cfg.Name, 1)
	c.bus.Gauge("dvfs.freq_mhz", 0, c.cfg.Name, c.cfg.FreqsMHz[idx])
	for _, fn := range c.onFreqChange {
		fn(old, idx)
	}
}

// foldBusy charges all still-busy stretches into busyAccum up to now.
func (c *CPU) foldBusy() {
	now := c.eng.Now()
	for i, b := range c.busy {
		if !b {
			continue
		}
		from := c.busySince[i]
		if from < c.windowStart {
			from = c.windowStart
		}
		c.busyAccum[i] += now.Sub(from)
		c.busySince[i] = now
	}
}

func (c *CPU) resetWindow() {
	c.windowStart = c.eng.Now()
	for i := range c.busyAccum {
		c.busyAccum[i] = 0
	}
	for i := range c.busySince {
		if c.busy[i] {
			c.busySince[i] = c.windowStart
		}
	}
}

// Utilization reports the governor's load signal: the maximum per-core
// busy fraction over the current window, in [0, 1]. Cluster-wide DVFS
// policies follow the busiest core (as Linux cpufreq does), so a single
// saturated core raises the shared clock.
func (c *CPU) Utilization() float64 {
	now := c.eng.Now()
	span := now.Sub(c.windowStart)
	if span <= 0 {
		return 0
	}
	var max float64
	for i := range c.busyAccum {
		busy := c.busyAccum[i]
		if c.busy[i] {
			from := c.busySince[i]
			if from < c.windowStart {
				from = c.windowStart
			}
			busy += now.Sub(from)
		}
		if u := float64(busy) / float64(span); u > max {
			max = u
		}
	}
	return max
}

func (c *CPU) governorTick(now sim.Time) {
	if !c.govSuspended {
		util := c.Utilization()
		switch {
		case util > c.cfg.UpThreshold && c.freqIdx < c.TopFreqIdx():
			c.setFreq(c.freqIdx + 1)
		case util < c.cfg.DownThreshold && c.freqIdx > 0:
			c.setFreq(c.freqIdx - 1)
		}
	}
	c.resetWindow()
	c.eng.After(c.cfg.GovernorWindow, c.governorTick)
}

// SuspendGovernor stops the hardware governor from adjusting the operating
// point (its window keeps turning over). The psbox layer suspends it while
// a sandbox's spatial balloon is resident: the sandbox's frequency is then
// owned by its *virtual* governor, so the co-runners' utilization cannot
// contaminate the sandbox's power state (§4.1).
func (c *CPU) SuspendGovernor() { c.govSuspended = true }

// ResumeGovernor re-enables hardware governor adjustments.
func (c *CPU) ResumeGovernor() { c.govSuspended = false }
