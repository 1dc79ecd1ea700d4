// Package cellular models a 4G/LTE interface, the paper's §7(3) limitation
// case. Unlike the WiFi NIC, a cellular modem's power states (the RRC
// state machine: IDLE, FACH, DCH) are governed by the cellular standard
// and configured by the network — the OS can neither reprogram the
// inactivity timers nor save/restore the state. The type therefore exposes
// NO State/Restore pair: power-state virtualization, and with it a full
// psbox, "will be made feasible on cellular interfaces through future
// hardware support".
package cellular

import (
	"fmt"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

// RRCState is the radio resource control state.
type RRCState int

const (
	// RRCIdle: camped, lowest power.
	RRCIdle RRCState = iota
	// RRCFach: shared-channel state, medium power (demotion target).
	RRCFach
	// RRCDch: dedicated channel, full power; required for transmission.
	RRCDch
)

func (s RRCState) String() string {
	switch s {
	case RRCIdle:
		return "idle"
	case RRCFach:
		return "fach"
	case RRCDch:
		return "dch"
	default:
		return fmt.Sprintf("rrc(%d)", int(s))
	}
}

// Config describes the modem. The timers belong to the *network* — they
// are not OS-tunable on real hardware; they are fields here only so tests
// can model different operators.
type Config struct {
	Name string

	LinkBytesPerSec   float64
	PerPacketOverhead sim.Duration

	IdleW power.Watts
	FachW power.Watts
	DchW  power.Watts

	// PromotionDelay is the IDLE/FACH→DCH signalling delay, during which
	// the radio already draws DCH power but cannot carry data.
	PromotionDelay sim.Duration

	// DchTail and FachTail are the network-configured inactivity timers:
	// DCH→FACH after DchTail without traffic, FACH→IDLE after FachTail
	// more.
	DchTail  sim.Duration
	FachTail sim.Duration
}

// DefaultConfig models a typical LTE/3G-era operator configuration (cf.
// the paper's ref [41]).
func DefaultConfig() Config {
	return Config{
		Name:              "cellular",
		LinkBytesPerSec:   1.5e6,
		PerPacketOverhead: 1 * sim.Millisecond,
		IdleW:             0.02,
		FachW:             0.45,
		DchW:              1.00,
		PromotionDelay:    600 * sim.Millisecond,
		DchTail:           5 * sim.Second,
		FachTail:          12 * sim.Second,
	}
}

func (c Config) validate() error {
	if c.LinkBytesPerSec <= 0 {
		return fmt.Errorf("cellular %q: LinkBytesPerSec must be positive", c.Name)
	}
	if c.PromotionDelay < 0 || c.DchTail <= 0 || c.FachTail <= 0 {
		return fmt.Errorf("cellular %q: invalid timers", c.Name)
	}
	return nil
}

// Packet is one upload unit.
type Packet struct {
	ID    uint64
	Owner int
	Bytes int

	Enqueued   sim.Time
	Dispatched sim.Time
	Completed  sim.Time
}

// Modem is the simulated interface. Transmission requests queue inside the
// modem (the baseband owns its own buffering); the RRC machine promotes
// and demotes on its own timers.
type Modem struct {
	eng  *sim.Engine
	cfg  Config
	rail *power.Rail

	state    RRCState
	queue    []*Packet
	inflight *Packet
	promo    sim.Handle
	demote   sim.Handle

	onComplete []func(*Packet)
	nextID     uint64
}

// New builds an idle modem.
func New(eng *sim.Engine, cfg Config) (*Modem, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Modem{eng: eng, cfg: cfg, state: RRCIdle}
	m.rail = power.NewRail(eng, cfg.Name, cfg.IdleW)
	return m, nil
}

// MustNew is New for statically valid configurations.
func MustNew(eng *sim.Engine, cfg Config) *Modem {
	m, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Rail exposes the modem's metering scope.
func (m *Modem) Rail() *power.Rail { return m.rail }

// State reports the current RRC state.
func (m *Modem) State() RRCState { return m.state }

// Config returns the modem's configuration.
func (m *Modem) Config() Config { return m.cfg }

// OnComplete registers the transmission-done handler.
func (m *Modem) OnComplete(fn func(*Packet)) { m.onComplete = append(m.onComplete, fn) }

// Send enqueues an upload. The modem handles promotion automatically.
func (m *Modem) Send(owner, bytes int) *Packet {
	if bytes <= 0 {
		panic(fmt.Sprintf("cellular %s: empty packet", m.cfg.Name))
	}
	m.nextID++
	p := &Packet{ID: m.nextID, Owner: owner, Bytes: bytes, Enqueued: m.eng.Now()}
	m.queue = append(m.queue, p)
	m.pump()
	return p
}

// QueueLen reports packets waiting in the baseband.
func (m *Modem) QueueLen() int { return len(m.queue) }

func (m *Modem) setState(s RRCState) {
	m.state = s
	switch s {
	case RRCIdle:
		m.rail.Set(m.cfg.IdleW)
	case RRCFach:
		m.rail.Set(m.cfg.FachW)
	case RRCDch:
		m.rail.Set(m.cfg.DchW)
	}
}

func (m *Modem) pump() {
	if m.inflight != nil || len(m.queue) == 0 {
		return
	}
	m.eng.Cancel(m.demote)
	if m.state != RRCDch {
		if m.promo.Pending() {
			return // promotion already in progress
		}
		// Promotion: the radio burns DCH power during signalling but
		// cannot carry data yet. The OS has no say in this.
		m.rail.Set(m.cfg.DchW)
		m.promo = m.eng.After(m.cfg.PromotionDelay, func(sim.Time) {
			m.setState(RRCDch)
			m.pump()
		})
		return
	}
	p := m.queue[0]
	m.queue = m.queue[1:]
	m.inflight = p
	p.Dispatched = m.eng.Now()
	air := m.cfg.PerPacketOverhead +
		sim.Duration(float64(p.Bytes)/m.cfg.LinkBytesPerSec*1e9)
	m.eng.After(air, func(sim.Time) { m.finish(p) })
}

func (m *Modem) finish(p *Packet) {
	p.Completed = m.eng.Now()
	m.inflight = nil
	if len(m.queue) > 0 {
		m.pump()
	} else {
		m.armDemotion()
	}
	for _, fn := range m.onComplete {
		fn(p)
	}
}

func (m *Modem) armDemotion() {
	m.eng.Cancel(m.demote)
	m.demote = m.eng.After(m.cfg.DchTail, func(sim.Time) {
		if m.state != RRCDch || m.inflight != nil || len(m.queue) > 0 {
			return
		}
		m.setState(RRCFach)
		m.demote = m.eng.After(m.cfg.FachTail, func(sim.Time) {
			if m.state == RRCFach && m.inflight == nil && len(m.queue) == 0 {
				m.setState(RRCIdle)
			}
		})
	})
}
