// Package faults is the deterministic fault-injection layer: it schedules
// hardware failures on the simulation engine so that a seeded run hits the
// exact same faults at the exact same instants, every time. The faults
// exercise the recovery machinery above them — the kernel accelerator
// watchdog, the packet scheduler's link-flap retries, pending-DVFS
// application after transition stalls, and the virtual meters' degraded
// mode over DAQ dropouts.
package faults

import (
	"fmt"
	"sort"

	"psbox/internal/hw/accelhw"
	"psbox/internal/hw/cpu"
	"psbox/internal/hw/nic"
	"psbox/internal/meter"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// Kind names one class of injected fault.
type Kind string

// The four fault kinds.
const (
	// AccelHang wedges the command at the head of an accelerator's
	// execution units (or the next dispatched one): it never raises its
	// completion interrupt until the device is reset.
	AccelHang Kind = "accel-hang"

	// NICFlap drops the wireless link for a spell; frames in flight are
	// lost and must be retransmitted.
	NICFlap Kind = "nic-flap"

	// DVFSStall freezes a CPU's operating point mid-transition: frequency
	// requests issued during the stall latch and apply when it ends.
	DVFSStall Kind = "dvfs-stall"

	// MeterDropout loses a window of one DAQ channel's samples.
	MeterDropout Kind = "meter-dropout"

	// SandboxCrash kills a supervised sandbox session by name: its tasks
	// die abruptly and the sandbox supervisor's restart/quarantine
	// machinery takes over.
	SandboxCrash Kind = "sandbox-crash"
)

// Event is one injected fault, recorded at the instant it fired.
type Event struct {
	At     sim.Time
	Kind   Kind
	Target string
	Detail string
}

// String renders the event in the stable one-line form the determinism
// harness diffs across runs.
func (e Event) String() string {
	return fmt.Sprintf("%12d %-13s %-8s %s", int64(e.At), e.Kind, e.Target, e.Detail)
}

// Injector owns fault scheduling for one simulated system. All injection
// goes through the sim engine and (for randomized campaigns) a seeded
// generator, so a fault schedule is a pure function of the seed.
type Injector struct {
	eng *sim.Engine
	rnd *sim.Rand

	accels     map[string]*accelhw.Device
	accelNames []string
	nics       map[string]*nic.NIC
	nicNames   []string
	cpus       map[string]*cpu.CPU
	cpuNames   []string
	m          *meter.Meter
	sandbox    CrashTarget

	log []Event

	// Observability (nil-safe; the bus snapshots itself).
	bus *obs.Bus
}

// SetBus mirrors the fault log onto a bus: every recorded fault also
// becomes a trace instant.
func (in *Injector) SetBus(b *obs.Bus) { in.bus = b }

// New builds an injector over a simulation engine, seeded for randomized
// campaigns. Targets are registered afterwards.
func New(eng *sim.Engine, seed uint64) *Injector {
	return &Injector{
		eng:    eng,
		rnd:    sim.NewRand(seed ^ 0xfa17b0c5),
		accels: make(map[string]*accelhw.Device),
		nics:   make(map[string]*nic.NIC),
		cpus:   make(map[string]*cpu.CPU),
	}
}

// RegisterAccel makes an accelerator device a hang target.
func (in *Injector) RegisterAccel(name string, d *accelhw.Device) {
	in.accels[name] = d
	in.accelNames = append(in.accelNames, name)
	sort.Strings(in.accelNames)
}

// RegisterNIC makes a NIC a link-flap target.
func (in *Injector) RegisterNIC(name string, n *nic.NIC) {
	in.nics[name] = n
	in.nicNames = append(in.nicNames, name)
	sort.Strings(in.nicNames)
}

// RegisterCPU makes a CPU a DVFS-stall target.
func (in *Injector) RegisterCPU(name string, c *cpu.CPU) {
	in.cpus[name] = c
	in.cpuNames = append(in.cpuNames, name)
	sort.Strings(in.cpuNames)
}

// RegisterMeter makes the DAQ a sample-dropout target.
func (in *Injector) RegisterMeter(m *meter.Meter) { in.m = m }

// CrashTarget is the sandbox manager's crash-injection surface: kill the
// named live session, reporting whether one existed.
type CrashTarget interface {
	InjectCrash(name string) bool
}

// RegisterSandbox makes a sandbox manager a session-crash target.
func (in *Injector) RegisterSandbox(t CrashTarget) { in.sandbox = t }

func (in *Injector) record(kind Kind, target, detail string) {
	in.log = append(in.log, Event{At: in.eng.Now(), Kind: kind, Target: target, Detail: detail})
	in.bus.Instant(obs.CatFault, string(kind), 0, int64(len(in.log)), "", target)
	in.bus.Count("faults.injected", 0, "", 1)
}

// HangAccelAt schedules an AccelHang on a registered device.
func (in *Injector) HangAccelAt(at sim.Time, dev string) {
	d, ok := in.accels[dev]
	if !ok {
		panic(fmt.Sprintf("faults: no accelerator %q registered", dev))
	}
	in.eng.At(at, func(sim.Time) {
		if d.InjectHang() {
			in.record(AccelHang, dev, "command wedged")
		} else {
			in.record(AccelHang, dev, "armed for next dispatch")
		}
	})
}

// FlapLinkAt schedules a NICFlap: the link goes down at `at` and comes
// back after downFor.
func (in *Injector) FlapLinkAt(at sim.Time, dev string, downFor sim.Duration) {
	n, ok := in.nics[dev]
	if !ok {
		panic(fmt.Sprintf("faults: no NIC %q registered", dev))
	}
	if downFor <= 0 {
		panic("faults: link flap needs a positive down time")
	}
	in.eng.At(at, func(sim.Time) {
		if !n.LinkUp() {
			in.record(NICFlap, dev, "already down; extended")
		} else {
			n.SetLink(false)
			in.record(NICFlap, dev, fmt.Sprintf("down for %v", downFor))
		}
	})
	in.eng.At(at.Add(downFor), func(sim.Time) {
		if !n.LinkUp() {
			n.SetLink(true)
		}
	})
}

// StallDVFSAt schedules a DVFSStall on a registered CPU.
func (in *Injector) StallDVFSAt(at sim.Time, name string, d sim.Duration) {
	c, ok := in.cpus[name]
	if !ok {
		panic(fmt.Sprintf("faults: no CPU %q registered", name))
	}
	if d <= 0 {
		panic("faults: DVFS stall needs a positive duration")
	}
	in.eng.At(at, func(sim.Time) {
		c.InjectDVFSStall(d)
		in.record(DVFSStall, name, fmt.Sprintf("stalled for %v", d))
	})
}

// DropMeterAt schedules a MeterDropout: rail's samples over [at, at+d)
// are lost.
func (in *Injector) DropMeterAt(at sim.Time, rail string, d sim.Duration) {
	if in.m == nil {
		panic("faults: no meter registered")
	}
	if d <= 0 {
		panic("faults: meter dropout needs a positive duration")
	}
	in.eng.At(at, func(now sim.Time) {
		in.m.InjectDropout(rail, now, now.Add(d))
		in.record(MeterDropout, rail, fmt.Sprintf("samples lost for %v", d))
	})
}

// CrashSessionAt schedules a SandboxCrash on the named session. Sessions
// come and go at runtime, so (unlike hardware targets) the name is
// resolved at firing time; a miss is recorded, not a panic.
func (in *Injector) CrashSessionAt(at sim.Time, name string) {
	if in.sandbox == nil {
		panic("faults: no sandbox manager registered")
	}
	in.eng.At(at, func(sim.Time) {
		if in.sandbox.InjectCrash(name) {
			in.record(SandboxCrash, name, "session killed")
		} else {
			in.record(SandboxCrash, name, "no live session")
		}
	})
}

// Campaign parameterizes a randomized fault schedule over one horizon.
// Zero counts skip a kind; kinds without a registered target are skipped
// regardless.
type Campaign struct {
	Horizon sim.Duration

	AccelHangs    int
	NICFlaps      int
	DVFSStalls    int
	MeterDropouts int
}

// campaignMaxDur bounds a campaign's drawn link-flap, DVFS-stall and
// meter-dropout durations: each is 1 ms plus a draw below this.
const campaignMaxDur = 20 * sim.Millisecond

// Randomize schedules a campaign's faults at seeded-random instants over
// [now, now+Horizon). The draw order is fixed (kind by kind, sorted target
// names), so one seed always yields one schedule.
func (in *Injector) Randomize(c Campaign) {
	if c.Horizon <= 0 {
		panic("faults: campaign needs a positive horizon")
	}
	now := in.eng.Now()
	at := func() sim.Time { return now.Add(sim.Duration(in.rnd.Int63n(int64(c.Horizon)))) }
	dur := func() sim.Duration {
		return sim.Millisecond + sim.Duration(in.rnd.Int63n(int64(campaignMaxDur)))
	}
	if len(in.accelNames) > 0 {
		for i := 0; i < c.AccelHangs; i++ {
			in.HangAccelAt(at(), in.accelNames[in.rnd.Intn(len(in.accelNames))])
		}
	}
	if len(in.nicNames) > 0 {
		for i := 0; i < c.NICFlaps; i++ {
			in.FlapLinkAt(at(), in.nicNames[in.rnd.Intn(len(in.nicNames))], dur())
		}
	}
	if len(in.cpuNames) > 0 {
		for i := 0; i < c.DVFSStalls; i++ {
			in.StallDVFSAt(at(), in.cpuNames[in.rnd.Intn(len(in.cpuNames))], dur())
		}
	}
	if in.m != nil {
		rails := in.m.Rails()
		for i := 0; i < c.MeterDropouts; i++ {
			in.DropMeterAt(at(), rails[in.rnd.Intn(len(rails))], dur())
		}
	}
}

// Log returns the faults that have fired so far, in firing order.
func (in *Injector) Log() []Event {
	out := make([]Event, len(in.log))
	copy(out, in.log)
	return out
}

// FormatLog renders the fired faults one per line — the determinism
// harness diffs this across same-seed runs.
func (in *Injector) FormatLog() string {
	s := ""
	for _, e := range in.log {
		s += e.String() + "\n"
	}
	return s
}
