// Package obs is psbox's deterministic observability layer: a typed event
// bus of spans and instants stamped with simulated time, a metrics
// registry keyed by owner app and power rail, an attribution joiner that
// blames each meter sample on the entities active in its window, and
// pluggable exporters (Chrome trace-event JSON, CSV, ASCII).
//
// Everything here is a pure function of the simulation: events carry only
// sim.Time stamps and values derived from simulated state, the ring drops
// oldest-first with an exact counter, and reports are emitted in sorted
// canonical order. The bus snapshots like any other stateful layer, so a
// trace survives crash-and-resume byte-for-byte (DESIGN.md
// §"Observability").
package obs

import (
	"fmt"

	"psbox/internal/sim"
)

// Type distinguishes point events from intervals.
type Type uint8

// The two event shapes.
const (
	// TypeInstant marks a point in simulated time (a state change, a
	// fault firing, a watchdog action).
	TypeInstant Type = iota
	// TypeSpan covers an interval [T, End) during which an entity was
	// active (a task on a core, a command on an accelerator, a frame in
	// the air).
	TypeSpan
)

// String names the type for renderers.
func (t Type) String() string {
	if t == TypeSpan {
		return "span"
	}
	return "instant"
}

// Event categories, one per instrumented subsystem. Exporters group
// events by category (Perfetto maps each to a named track).
const (
	CatSim   = "sim"        // engine milestones
	CatSched = "sched"      // CPU scheduler: switches, run spans, coscheduling
	CatAccel = "accel"      // accelerator driver: commands, phases, watchdog
	CatNet   = "net"        // packet scheduler: transmissions, phases
	CatDVFS  = "dvfs"       // CPU operating-point transitions and stalls
	CatNIC   = "nic"        // NIC power-state changes (PSM/active/tail)
	CatMeter = "meter"      // DAQ sample-window events (dropouts)
	CatFault = "fault"      // injected faults, mirrored from the fault log
	CatBox   = "box"        // power sandbox lifecycle and residency
	CatCkpt  = "checkpoint" // checkpoint instants from the soak harness
	// CatSession: sandbox-manager session lifecycle — admission, budget
	// violations, throttle windows, kills, restarts, quarantine.
	CatSession = "session"
)

// Event is one trace record. All strings are constants or names that
// already exist in the simulation (no per-event formatting), so emitting
// an event allocates nothing beyond its ring slot.
type Event struct {
	Seq  uint64   // 1-based emission order, gap-free even across drops
	Type Type     //
	T    sim.Time // instant, or span start
	End  sim.Time // span end; == T for instants
	Cat  string   // subsystem category (Cat* constants)
	Kind string   // event kind within the category
	// Owner is the owning app ID; 0 means the kernel / no single owner.
	Owner int
	// Arg is a kind-specific scalar (command ID, frequency index, core,
	// fired-event count, ...).
	Arg int64
	// Rail names the power rail the event draws on, "" if none. The
	// attribution joiner matches span rails against meter rails.
	Rail string
	// Name is the entity involved (task, device, core, target), "" if none.
	Name string
}

// String renders one stable line for debugging and ASCII reports.
func (e Event) String() string {
	if e.Type == TypeSpan {
		return fmt.Sprintf("%12d %12d %-10s %-16s owner=%d arg=%d rail=%s name=%s",
			int64(e.T), int64(e.End), e.Cat, e.Kind, e.Owner, e.Arg, e.Rail, e.Name)
	}
	return fmt.Sprintf("%12d %12s %-10s %-16s owner=%d arg=%d rail=%s name=%s",
		int64(e.T), "-", e.Cat, e.Kind, e.Owner, e.Arg, e.Rail, e.Name)
}

// DefaultCapacity bounds the ring when NewBus is given no capacity.
const DefaultCapacity = 1 << 16

// Bus collects events and metrics for one simulated system. It is
// disabled by default: every emission checks the flag first, so an idle
// bus costs one branch per call site and changes nothing observable.
// A nil *Bus is also safe to emit into, so subsystems never need to
// guard their instrumentation. A Bus is confined to the goroutine that
// drives its simulation; deterministic replay depends on emission order.
//
//psbox:confined
type Bus struct {
	eng     *sim.Engine
	enabled bool

	ring    []Event
	start   int // ring index of the oldest retained event
	n       int // events currently retained
	seq     uint64
	dropped uint64

	owners   map[int]string
	counters map[Key]int64
	gauges   map[Key]float64
	hists    map[Key]*Hist
}

// NewBus returns a disabled bus over the engine. capacity bounds the event
// ring; non-positive means DefaultCapacity.
func NewBus(eng *sim.Engine, capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Bus{
		eng:      eng,
		ring:     make([]Event, capacity),
		owners:   make(map[int]string),
		counters: make(map[Key]int64),
		gauges:   make(map[Key]float64),
		hists:    make(map[Key]*Hist),
	}
}

// Enable turns emission on.
func (b *Bus) Enable() { b.enabled = true }

// Enabled reports whether the bus is recording.
func (b *Bus) Enabled() bool { return b != nil && b.enabled }

// Capacity reports the ring bound.
func (b *Bus) Capacity() int { return len(b.ring) }

// NameOwner registers the display name for an owner app ID. Names flow
// into exports; registration is idempotent and works even while disabled
// so early app creation is never lost.
func (b *Bus) NameOwner(id int, name string) {
	if b == nil {
		return
	}
	b.owners[id] = name
}

// OwnerName returns the registered name for id, or "".
func (b *Bus) OwnerName(id int) string {
	if b == nil {
		return ""
	}
	return b.owners[id]
}

// push appends one event, dropping the oldest when the ring is full.
// Seq keeps counting across drops so truncation is always visible.
func (b *Bus) push(ev Event) {
	b.seq++
	ev.Seq = b.seq
	if b.n == len(b.ring) {
		b.ring[b.start] = ev
		b.start = (b.start + 1) % len(b.ring)
		b.dropped++
		return
	}
	b.ring[(b.start+b.n)%len(b.ring)] = ev
	b.n++
}

// Instant records a point event at the current simulated time.
func (b *Bus) Instant(cat, kind string, owner int, arg int64, rail, name string) {
	if b == nil || !b.enabled {
		return
	}
	now := b.eng.Now()
	b.push(Event{Type: TypeInstant, T: now, End: now,
		Cat: cat, Kind: kind, Owner: owner, Arg: arg, Rail: rail, Name: name})
}

// Span records an interval event ending at the current simulated time.
func (b *Bus) Span(cat, kind string, owner int, arg int64, rail, name string, start sim.Time) {
	if b == nil || !b.enabled {
		return
	}
	b.push(Event{Type: TypeSpan, T: start, End: b.eng.Now(),
		Cat: cat, Kind: kind, Owner: owner, Arg: arg, Rail: rail, Name: name})
}

// Dropped reports how many events the ring has discarded (oldest-first).
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped
}

// Total reports how many events have ever been emitted.
func (b *Bus) Total() uint64 {
	if b == nil {
		return 0
	}
	return b.seq
}

// Len reports how many events the ring currently retains.
func (b *Bus) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Events returns the retained events oldest-first.
func (b *Bus) Events() []Event {
	if b == nil {
		return nil
	}
	out := make([]Event, 0, b.n)
	for i := 0; i < b.n; i++ {
		out = append(out, b.ring[(b.start+i)%len(b.ring)])
	}
	return out
}

// Dump captures everything an exporter needs.
func (b *Bus) Dump() *Dump {
	d := &Dump{Owners: make(map[int]string)}
	if b == nil {
		return d
	}
	d.Events = b.Events()
	d.Dropped = b.dropped
	d.Total = b.seq
	for id, name := range b.owners {
		d.Owners[id] = name
	}
	return d
}
