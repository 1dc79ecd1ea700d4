// Package psbox is a from-scratch reproduction of "Power Sandbox: Power
// Awareness Redefined" (EuroSys 2018) as a deterministic full-stack
// simulation: embedded hardware models (multicore CPU with cluster DVFS, a
// pipelined GPU, a multicore DSP, a WiFi NIC with tail power states), an
// in-situ power meter, a work-conserving kernel — and, on top, the power
// sandbox (psbox) OS principal with spatial/temporal resource balloons,
// scheduling loans, and per-sandbox power-state virtualization.
//
// Quick start:
//
//	sys := psbox.NewAM57(42)
//	app := sys.Kernel.NewApp("vision")
//	app.Spawn("worker", 0, psbox.Loop(
//		psbox.Compute{Cycles: 3e6},
//		psbox.Sleep{D: 5 * psbox.Millisecond},
//	))
//	box := sys.Sandbox.MustCreate(app, psbox.HWCPU)
//	box.Enter()
//	sys.Run(1 * psbox.Second)
//	fmt.Printf("observed %.1f mJ\n", box.Read()*1000)
//
// Everything is simulated time; Run advances the world deterministically.
package psbox

import (
	"fmt"
	"sort"
	"strings"

	"psbox/internal/account"
	"psbox/internal/core"
	"psbox/internal/faults"
	"psbox/internal/hw/accelhw"
	"psbox/internal/hw/cpu"
	"psbox/internal/hw/display"
	"psbox/internal/hw/dram"
	"psbox/internal/hw/gps"
	"psbox/internal/hw/nic"
	"psbox/internal/hw/power"
	"psbox/internal/kernel"
	"psbox/internal/kernel/accel"
	"psbox/internal/kernel/fair"
	"psbox/internal/kernel/netsched"
	"psbox/internal/meter"
	"psbox/internal/obs"
	"psbox/internal/obs/profile"
	"psbox/internal/sandbox"
	"psbox/internal/sim"
)

// Re-exported simulation time types and units.
type (
	// Time is a simulated instant (nanoseconds since simulation start).
	Time = sim.Time
	// Duration is a simulated time span.
	Duration = sim.Duration
)

// Common duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Re-exported psbox API types (Listing 1 of the paper).
type (
	// Box is a power sandbox.
	Box = core.Box
	// HW names a bindable hardware metering scope.
	HW = core.HW
	// Sample is one timestamped power reading from a virtual power meter.
	Sample = power.Sample
	// App is an application principal.
	App = kernel.App
	// Task is an application thread.
	Task = kernel.Task
	// Env is the execution environment handed to programs.
	Env = kernel.Env
	// Program drives a task.
	Program = kernel.Program
	// ProgramFunc adapts a function to Program.
	ProgramFunc = kernel.ProgramFunc
	// Action is one step of a program.
	Action = kernel.Action
)

// Hardware scopes of the simulated platforms.
const (
	HWCPU     = core.HWCPU
	HWGPU     = core.HWGPU
	HWDSP     = core.HWDSP
	HWWiFi    = core.HWWiFi
	HWDisplay = core.HWDisplay
	HWGPS     = core.HWGPS
	HWDRAM    = core.HWDRAM
)

// Re-exported program actions.
type (
	// Compute consumes CPU cycles.
	Compute = kernel.Compute
	// SubmitAccel enqueues an accelerator command asynchronously.
	SubmitAccel = kernel.SubmitAccel
	// SubmitAccelAs delegates a command to another app's identity (for
	// psbox-aware userspace daemons, §7).
	SubmitAccelAs = kernel.SubmitAccelAs
	// AwaitAccel blocks on the app's accelerator backlog.
	AwaitAccel = kernel.AwaitAccel
	// Send deposits bytes into a socket buffer.
	Send = kernel.Send
	// SetTxLevel programs the app's NIC transmission power level.
	SetTxLevel = kernel.SetTxLevel
	// SetDisplayRegion updates what the app shows on the panel.
	SetDisplayRegion = kernel.SetDisplayRegion
	// AcquireGPS opens the GPS receiver for the app.
	AcquireGPS = kernel.AcquireGPS
	// ReleaseGPS drops the app's hold on the receiver.
	ReleaseGPS = kernel.ReleaseGPS
	// AwaitNet blocks on the app's unsent bytes.
	AwaitNet = kernel.AwaitNet
	// Sleep blocks for a duration.
	Sleep = kernel.Sleep
	// Exit terminates the task.
	Exit = kernel.Exit
)

// Loop repeats a fixed slice of actions forever.
func Loop(actions ...kernel.Action) Program { return kernel.Loop(actions...) }

// Sequence runs actions once, then exits.
func Sequence(actions ...kernel.Action) Program { return kernel.Sequence(actions...) }

// PlatformConfig assembles a simulated platform.
type PlatformConfig struct {
	CPU     cpu.Config
	GPU     *accelhw.Config // nil: absent
	DSP     *accelhw.Config // nil: absent
	WiFi    *nic.Config     // nil: absent
	Display *display.Config // nil: absent (§7 extension scope)
	GPS     *gps.Config     // nil: absent (§7 extension scope)
	DRAM    *dram.Config    // nil: absent (§7 extension scope)
	Seed    uint64
}

// AM57Config models the paper's Fig. 4(a) platform: TI AM57x EVM with a
// dual Cortex-A15 cluster, PowerVR SGX544 GPU and TI C66x DSP, each on its
// own metered power rail.
func AM57Config(seed uint64) PlatformConfig {
	g := accelhw.GPUConfig()
	d := accelhw.DSPConfig()
	return PlatformConfig{
		CPU:  cpu.DefaultConfig(),
		GPU:  &g,
		DSP:  &d,
		Seed: seed,
	}
}

// BeagleBoneConfig models the paper's Fig. 4(b) platform: BeagleBone Black
// (single Cortex-A8) with a TI WiLink8 WiFi module.
func BeagleBoneConfig(seed uint64) PlatformConfig {
	c := cpu.Config{
		Name:           "cpu",
		Cores:          1,
		FreqsMHz:       []float64{300, 600, 1000},
		ActiveW:        []power.Watts{0.20, 0.35, 0.60},
		IdleCoreW:      0.05,
		RailBaseW:      0.25,
		GovernorWindow: 20 * sim.Millisecond,
		UpThreshold:    0.80,
		DownThreshold:  0.30,
	}
	w := nic.DefaultConfig()
	return PlatformConfig{
		CPU:  c,
		WiFi: &w,
		Seed: seed,
	}
}

// System is an assembled platform: hardware, kernel, meter, psbox service,
// and the usage recorders that feed the baseline accounting comparator.
// A System is owned by one goroutine at a time; hand it to a worker by
// capture or channel send, never share it.
//
//psbox:confined
type System struct {
	Eng     *sim.Engine
	Kernel  *kernel.Kernel
	Meter   *meter.Meter
	Sandbox *core.Manager

	// Faults schedules deterministic hardware failures (accelerator hangs,
	// link flaps, DVFS stalls, meter dropouts) on this system's engine.
	Faults *faults.Injector

	// Invariants audits runtime invariants (energy conservation, balloon
	// exclusivity, non-negative backlogs, monotone observations) after
	// every Run; a violation panics.
	Invariants *core.Checker

	// Recorders holds each metered device's occupancy record by rail
	// ("cpu", "gpu", "dsp", "wifi"): the usage tracking of §6.1 that every
	// attribution view reads.
	Recorders map[string]*account.Recorder

	// Trace is the observability bus: every subsystem emits its spans and
	// instants here once EnableTracing arms it, for export. Disabled (and
	// free) by default. No attribution view reads its ring.
	Trace *obs.Bus

	// Profile is the sim-time energy profiler: FoldProfile folds meter
	// samples against the occupancy records into a weighted app →
	// component → rail tree (see internal/obs/profile). Disabled (and
	// free) by default; arm with EnableProfiling.
	Profile *profile.Profiler

	// Periodic invariant auditing (SetAuditEvery), scenario-registered
	// checkpoint sections (RegisterSnapshotter) and the length of the
	// previous checkpoint, which sizes the next one's buffer (Snapshot).
	auditStop  func()
	audits     uint64
	extraSnaps []extraSnap
	ckptLen    int

	// sandboxes is the lazily-built session manager (Sandboxes); nil until
	// first requested, so scenarios that never use it keep their exact
	// event sequences and checkpoint bytes.
	sandboxes *sandbox.Manager
}

// NewSystem assembles a platform from a config.
// simProbeStride is how many fired engine events separate two CatSim
// "fired" heartbeat instants on the trace. Milestones are counted in
// fired events, not Run calls, so a straight run and a crash-resumed
// run of the same scenario produce byte-identical traces.
const simProbeStride = 4096

func NewSystem(cfg PlatformConfig) *System {
	eng := sim.NewEngine()
	bus := obs.NewBus(eng, 0)
	eng.SetFiredProbe(simProbeStride, func(now sim.Time, fired uint64) {
		bus.Instant(obs.CatSim, "fired", 0, int64(fired), "", "")
	})
	c := cpu.MustNew(eng, cfg.CPU)
	c.SetBus(bus)
	k := kernel.New(eng, kernel.Config{CPU: c, Seed: cfg.Seed})
	k.SetBus(bus)
	k.Scheduler().SetBus(bus, cfg.CPU.Name)
	m := meter.New(eng)
	m.SetBus(bus)
	m.AddRail(c.Rail())

	inj := faults.New(eng, cfg.Seed)
	inj.SetBus(bus)
	inj.RegisterCPU(cfg.CPU.Name, c)
	inj.RegisterMeter(m)

	// Every device's usage hooks feed an occupancy record under its rail.
	recorders := map[string]*account.Recorder{}
	record := func(dev, rail, comp string) {
		recorders[rail] = &account.Recorder{Comp: comp}
		k.SetUsageRecorder(dev, recorders[rail].Record, recorders[rail].RecordWindow)
	}
	record("cpu", cfg.CPU.Name, obs.CatSched)

	attach := func(name string, hw *accelhw.Config) {
		if hw == nil {
			return
		}
		dev := accelhw.MustNew(eng, *hw)
		inj.RegisterAccel(name, dev)
		drv := accel.New(eng, dev, fair.Callbacks{})
		drv.SetBus(bus)
		k.AttachAccel(name, drv)
		record(name, hw.Name, obs.CatAccel)
		m.AddRail(dev.Rail())
	}
	attach("gpu", cfg.GPU)
	attach("dsp", cfg.DSP)

	if cfg.Display != nil {
		d := display.MustNew(eng, *cfg.Display)
		k.AttachDisplay(d)
		m.AddRail(d.Rail())
	}
	if cfg.GPS != nil {
		g := gps.MustNew(eng, *cfg.GPS)
		k.AttachGPS(g)
		m.AddRail(g.Rail())
	}
	if cfg.DRAM != nil {
		d := dram.MustNew(eng, *cfg.DRAM, cfg.CPU.Cores)
		k.AttachDRAM(d)
		m.AddRail(d.Rail())
	}
	if cfg.WiFi != nil {
		n := nic.MustNew(eng, *cfg.WiFi)
		n.SetBus(bus)
		inj.RegisterNIC("wifi", n)
		nd := netsched.New(eng, n, fair.Callbacks{})
		nd.SetBus(bus)
		k.AttachNet(nd)
		record(cfg.WiFi.Name, cfg.WiFi.Name, obs.CatNet)
		m.AddRail(n.Rail())
	}

	// The battery rail: the whole-platform view an end-to-end power meter
	// (or a fuel gauge) would expose — the exact sum of every component
	// rail.
	var components []*power.Rail
	for _, name := range m.Rails() {
		components = append(components, m.Rail(name))
	}
	m.AddRail(power.SumRail(eng, "battery", components...))

	sandbox := core.NewManager(k, m)
	sandbox.SetBus(bus)
	return &System{
		Eng:        eng,
		Kernel:     k,
		Meter:      m,
		Sandbox:    sandbox,
		Faults:     inj,
		Invariants: core.NewChecker(sandbox, "battery"),
		Recorders:  recorders,
		Trace:      bus,
		Profile:    profile.New(),
	}
}

// NewAM57 builds the Fig. 4(a) platform.
func NewAM57(seed uint64) *System { return NewSystem(AM57Config(seed)) }

// NewBeagleBone builds the Fig. 4(b) platform.
func NewBeagleBone(seed uint64) *System { return NewSystem(BeagleBoneConfig(seed)) }

// Nexus6Config models the paper's second GPU platform (§5): a quad-core
// phone SoC with the Qualcomm Adreno 420. The wider cluster exercises
// task shootdown across four cores.
func Nexus6Config(seed uint64) PlatformConfig {
	c := cpu.Config{
		Name:           "cpu",
		Cores:          4,
		FreqsMHz:       []float64{300, 880, 1500, 2700},
		ActiveW:        []power.Watts{0.18, 0.45, 0.95, 2.40},
		IdleCoreW:      0.06,
		RailBaseW:      0.55,
		GovernorWindow: 20 * sim.Millisecond,
		UpThreshold:    0.80,
		DownThreshold:  0.30,
	}
	g := accelhw.AdrenoConfig()
	return PlatformConfig{
		CPU:  c,
		GPU:  &g,
		Seed: seed,
	}
}

// NewNexus6 builds the second GPU platform.
func NewNexus6(seed uint64) *System { return NewSystem(Nexus6Config(seed)) }

// MobileConfig models a phone-class device for the §7 extension scopes:
// the AM57-style compute complex plus an OLED display, a GPS receiver, and
// a WiFi module.
func MobileConfig(seed uint64) PlatformConfig {
	cfg := AM57Config(seed)
	d := display.DefaultConfig()
	g := gps.DefaultConfig()
	w := nic.DefaultConfig()
	mem := dram.DefaultConfig()
	cfg.Display = &d
	cfg.GPS = &g
	cfg.WiFi = &w
	cfg.DRAM = &mem
	return cfg
}

// NewMobile builds the §7 extension platform.
func NewMobile(seed uint64) *System { return NewSystem(MobileConfig(seed)) }

// Run advances simulated time by d, then audits the runtime invariants
// over the advanced window; a violation panics. Every test that drives a
// system through Run therefore doubles as an invariant audit.
func (s *System) Run(d Duration) {
	s.Eng.RunFor(d)
	if s.Invariants != nil {
		if v := s.Invariants.Check(); len(v) > 0 {
			panic("psbox: invariant violation:\n  " + strings.Join(v, "\n  "))
		}
	}
}

// EnableAccelWatchdogs arms the completion-deadline watchdog on every
// attached accelerator: wedged devices are reset and their orphaned
// commands resubmitted with capped exponential backoff, the wasted
// occupancy billed to the owning sandbox.
func (s *System) EnableAccelWatchdogs() {
	s.Kernel.EnableAccelWatchdogs()
}

// Now reports the current simulated time.
func (s *System) Now() Time { return s.Eng.Now() }

// EnableTracing arms the observability bus: from this point on every
// instrumented subsystem records its spans and instants (and metric
// updates) on s.Trace. Tracing costs nothing while off — emission sites
// are nil-safe no-ops.
func (s *System) EnableTracing() { s.Trace.Enable() }

// EnableProfiling arms the energy profiler: FoldProfile calls from this
// point on accumulate the weighted energy tree. It needs no tracing.
// Profiling costs nothing while off.
func (s *System) EnableProfiling() { s.Profile.Enable() }

// FoldProfile folds every metered rail's unprocessed sample windows —
// from the profiler's watermark up to now — against the rail's occupancy
// record, then advances the watermark; repeated calls never double-count.
// The battery rail is the sum of the others and is skipped, mirroring the
// blame report. The fold reads the samples Meter.Samples would return
// straight off each rail, without building them.
//
// A fold books whatever is still open at its instant to the idle floor (a
// running task's current burst, a resident balloon, an executing command,
// a frame on air), and the next fold starts past it. So fold once, at the
// end, as the fleet's Summarize does.
func (s *System) FoldProfile() {
	if !s.Profile.Enabled() {
		return
	}
	now := s.Now()
	from := s.Profile.Through()
	ownerName := func(id int) string {
		if id == 0 {
			return "kernel"
		}
		if name := s.Trace.OwnerName(id); name != "" {
			return name
		}
		return fmt.Sprintf("app%d", id)
	}
	for _, rail := range s.Meter.Rails() {
		if rail == "battery" {
			continue
		}
		spans, comp := s.Recorders[rail].Occupancy()
		s.Profile.FoldRail(s.Meter.Rail(rail), comp, from, now, s.Meter.Period(), spans,
			s.Meter.Dropouts(rail, from, now), ownerName)
	}
	s.Profile.Advance(now)
}

// Blame joins one rail's DAQ samples with its occupancy record into the
// per-sample attribution timeline of the canonical report: for every
// sample window, which principals the drawn power is blamed on. Dropout
// windows injected on the rail mark overlapping samples degraded.
func (s *System) Blame(rail string, from, to Time) []obs.Blame {
	samples := s.Meter.Samples(rail, from, to)
	spans, _ := s.Recorders[rail].Occupancy()
	return obs.Attribute(samples, s.Meter.Period(), spans, s.Meter.Dropouts(rail, from, to))
}

// Sandboxes returns the system's runtime session manager, building it on
// first use: every metered-usage rail feeds a usage-share blame
// accountant, and the manager enforces per-session power budgets over
// their summed attribution. The manager starts with DefaultConfig(10 W);
// SetConfig before the first Launch sets another capacity. Also
// registers the manager as the fault layer's sandbox-crash target and as
// the "sandbox" checkpoint section.
func (s *System) Sandboxes() *sandbox.Manager {
	if s.sandboxes == nil {
		names := make([]string, 0, len(s.Recorders))
		for name := range s.Recorders {
			names = append(names, name)
		}
		sort.Strings(names)
		accts := make([]*account.Accountant, 0, len(names))
		for _, name := range names {
			accts = append(accts, s.Accountant(name, account.PolicyUsageShare))
		}
		s.sandboxes = sandbox.NewManager(s.Eng, s.Kernel, s.Sandbox, accts, s.Trace,
			sandbox.DefaultConfig(10))
		if s.Faults != nil {
			s.Faults.RegisterSandbox(s.sandboxes)
		}
	}
	return s.sandboxes
}

// Accountant builds the baseline comparator over one rail — the "existing
// approach" columns of Fig. 6. Usage share is the only policy.
func (s *System) Accountant(rail string, _ account.Policy) *account.Accountant {
	rec, ok := s.Recorders[rail]
	if !ok {
		panic("psbox: no usage recorder for rail " + rail)
	}
	return &account.Accountant{
		Rail:   s.Meter.Rail(rail),
		Rec:    rec,
		Window: s.Meter.Period(),
	}
}
