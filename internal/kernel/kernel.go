package kernel

import (
	"fmt"
	"sort"

	"psbox/internal/hw/cpu"
	"psbox/internal/hw/display"
	"psbox/internal/hw/dram"
	"psbox/internal/hw/gps"
	"psbox/internal/kernel/accel"
	"psbox/internal/kernel/fair"
	"psbox/internal/kernel/netsched"
	"psbox/internal/kernel/sched"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// Config assembles a kernel over pre-built hardware models.
type Config struct {
	CPU *cpu.CPU

	// Seed feeds the deterministic randomness handed to programs.
	Seed uint64
}

// Kernel is the simulated OS instance.
type Kernel struct {
	eng  *sim.Engine
	cpu  *cpu.CPU
	sch  *sched.Scheduler
	rand *sim.Rand

	accels    map[string]*accel.Driver
	accelKeys []string
	net       *netsched.Driver
	disp      *display.Display
	gpsDev    *gps.GPS
	mem       *dram.DRAM

	apps    map[int]*App
	appList []*App
	nextApp int
	tasks   map[*sched.Task]*Task
	running []*Task // per core

	// hooks holds each device's residency hooks and usage recorder, keyed
	// by device name: "cpu", each accelerator's name, the NIC's name.
	//psbox:allow-snapshotstate wiring: hook closures registered at construction
	hooks map[string]*devHooks
	//psbox:allow-snapshotstate wiring: hooks["cpu"], cached for the run path
	cpuHooks *devHooks

	// Observability (nil-safe; the bus snapshots itself).
	bus *obs.Bus
}

// SetBus routes kernel-level events to a bus and feeds it the owner-name
// table as apps are created. Subsystem drivers get their own SetBus calls
// from the wiring layer.
func (k *Kernel) SetBus(b *obs.Bus) {
	k.bus = b
	for _, a := range k.appList {
		b.NameOwner(a.ID, a.Name)
	}
}

// New builds a kernel over the given CPU. Accelerators and the NIC are
// attached afterwards with AttachAccel/AttachNet, before apps start.
func New(eng *sim.Engine, cfg Config) *Kernel {
	if cfg.CPU == nil {
		panic("kernel: need a CPU")
	}
	k := &Kernel{
		eng:     eng,
		cpu:     cfg.CPU,
		rand:    sim.NewRand(cfg.Seed ^ 0x9e3779b97f4a7c15),
		accels:  make(map[string]*accel.Driver),
		hooks:   make(map[string]*devHooks),
		apps:    make(map[int]*App),
		tasks:   make(map[*sched.Task]*Task),
		running: make([]*Task, cfg.CPU.Cores()),
	}
	k.cpuHooks = k.hook("cpu")
	k.sch = sched.New(eng, cfg.CPU.Cores(), sched.Callbacks{
		RunTask:       k.onRunTask,
		StopTask:      k.onStopTask,
		CoreIdle:      k.onCoreIdle,
		GroupResident: k.cpuHooks.resident,
		Balloon:       k.cpuHooks.balloon,
	})
	k.cpu.OnFreqChange(k.onFreqChange)
	return k
}

// Engine exposes the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// CPU exposes the CPU model.
func (k *Kernel) CPU() *cpu.CPU { return k.cpu }

// Scheduler exposes the CPU scheduler.
func (k *Kernel) Scheduler() *sched.Scheduler { return k.sch }

// AttachAccel registers an accelerator driver under a name ("gpu", "dsp").
func (k *Kernel) AttachAccel(name string, d *accel.Driver) {
	if _, dup := k.accels[name]; dup {
		panic(fmt.Sprintf("kernel: accelerator %q already attached", name))
	}
	k.accels[name] = d
	k.accelKeys = append(k.accelKeys, name)
	sort.Strings(k.accelKeys)
	h := k.hook(name)
	d.SetCallbacks(fair.Callbacks{
		BacklogChange: func(appID int) { k.checkAccelWaiters(name, appID) },
		BoxResident:   h.resident,
		Usage:         h.record,
	})
}

// AttachNet registers the packet scheduler.
func (k *Kernel) AttachNet(d *netsched.Driver) {
	if k.net != nil {
		panic("kernel: NIC already attached")
	}
	k.net = d
	h := k.hook(d.NIC().Config().Name)
	d.SetCallbacks(fair.Callbacks{
		BacklogChange: k.checkNetWaiters,
		BoxResident:   h.resident,
		Usage:         h.record,
	})
}

// Accel returns a named accelerator driver.
func (k *Kernel) Accel(name string) *accel.Driver {
	d, ok := k.accels[name]
	if !ok {
		panic(fmt.Sprintf("kernel: no accelerator %q", name))
	}
	return d
}

// HasAccel reports whether a named accelerator is attached.
func (k *Kernel) HasAccel(name string) bool {
	_, ok := k.accels[name]
	return ok
}

// AccelNames lists attached accelerators in stable order.
func (k *Kernel) AccelNames() []string { return k.accelKeys }

// EnableAccelWatchdogs arms the completion-deadline watchdog on every
// attached accelerator driver.
func (k *Kernel) EnableAccelWatchdogs() {
	for _, name := range k.accelKeys {
		k.accels[name].EnableWatchdog()
	}
}

// Net returns the packet scheduler; nil if no NIC is attached.
func (k *Kernel) Net() *netsched.Driver { return k.net }

// AttachDisplay registers the panel (§7 extension scope).
func (k *Kernel) AttachDisplay(d *display.Display) {
	if k.disp != nil {
		panic("kernel: display already attached")
	}
	k.disp = d
}

// Display returns the panel; nil if absent.
func (k *Kernel) Display() *display.Display { return k.disp }

// AttachGPS registers the receiver (§7 extension scope).
func (k *Kernel) AttachGPS(g *gps.GPS) {
	if k.gpsDev != nil {
		panic("kernel: GPS already attached")
	}
	k.gpsDev = g
}

// GPS returns the receiver; nil if absent.
func (k *Kernel) GPS() *gps.GPS { return k.gpsDev }

// AttachDRAM registers the memory channel (§7(4) extension scope).
func (k *Kernel) AttachDRAM(d *dram.DRAM) {
	if k.mem != nil {
		panic("kernel: DRAM already attached")
	}
	k.mem = d
}

// DRAM returns the memory channel; nil if absent.
func (k *Kernel) DRAM() *dram.DRAM { return k.mem }

// Apps lists the registered apps in creation order.
func (k *Kernel) Apps() []*App { return k.appList }

// OnResident registers a hook for balloon residency on a device: the
// CPU's spatial balloons ("cpu") or the temporal balloons of an
// accelerator or the NIC (by device name). Hooks fire in registration
// order; the psbox layer uses them for metering and power-state
// virtualization.
func (k *Kernel) OnResident(dev string, fn func(appID int, resident bool)) {
	h := k.hook(dev)
	h.onResident = append(h.onResident, fn)
}

// SetUsageRecorder installs the occupancy record for a device ("cpu", an
// accelerator's or the NIC's name): usage receives its run, command or
// airtime spans, and window the CPU's coscheduling windows.
func (k *Kernel) SetUsageRecorder(dev string, usage, window func(owner int, start, end sim.Time)) {
	h := k.hook(dev)
	h.usage, h.window = usage, window
}

// devHooks is one device's residency hooks and occupancy recorder.
type devHooks struct {
	onResident    []func(appID int, resident bool)
	usage, window func(owner int, start, end sim.Time)
}

func (k *Kernel) hook(dev string) *devHooks {
	h, ok := k.hooks[dev]
	if !ok {
		h = &devHooks{}
		k.hooks[dev] = h
	}
	return h
}

func (h *devHooks) resident(appID int, resident bool) {
	for _, fn := range h.onResident {
		fn(appID, resident)
	}
}

func (h *devHooks) record(owner int, start, end sim.Time) {
	if h.usage != nil {
		h.usage(owner, start, end)
	}
}

func (h *devHooks) balloon(owner int, start, end sim.Time) {
	if h.window != nil {
		h.window(owner, start, end)
	}
}
