// Package nic models a WiFi network interface with the power-state
// structure that makes wireless energy accounting hard: a high-power
// transmission state followed by a lingering tail state governed by a
// power-save timer (the paper's §2.3 "lingering power state" and §4.2
// "Wireless interfaces").
package nic

import (
	"fmt"

	"psbox/internal/hw/power"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// Mode is the NIC's power mode.
type Mode int

const (
	// ModePSM: power-save idle, the baseline state.
	ModePSM Mode = iota
	// ModeActive: transmitting or receiving a frame.
	ModeActive
	// ModeTail: the post-activity high-power lingering state; decays to PSM
	// when the tail timer expires.
	ModeTail
)

func (m Mode) String() string {
	switch m {
	case ModePSM:
		return "psm"
	case ModeActive:
		return "active"
	case ModeTail:
		return "tail"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config describes the NIC.
type Config struct {
	Name string

	// LinkBytesPerSec is the effective MAC throughput; PerPacketOverhead is
	// fixed per-frame airtime (preamble, contention, ACK).
	LinkBytesPerSec   float64
	PerPacketOverhead sim.Duration

	// Power by mode. ActiveW is indexed by transmission power level, the
	// NIC's virtualizable "transmission mode" state.
	PSMW    power.Watts
	ActiveW []power.Watts
	TailW   power.Watts

	// TailTimeout is the power-save timer: how long the NIC lingers in the
	// tail state after activity.
	TailTimeout sim.Duration
}

// DefaultConfig models the TI WiLink8 module of the paper's BeagleBone
// platform, tuned per DESIGN.md §5.
func DefaultConfig() Config {
	return Config{
		Name:              "wifi",
		LinkBytesPerSec:   2.5e6,
		PerPacketOverhead: 300 * sim.Microsecond,
		PSMW:              0.03,
		ActiveW:           []power.Watts{0.55, 0.80},
		TailW:             0.35,
		TailTimeout:       220 * sim.Millisecond,
	}
}

func (c Config) validate() error {
	if c.LinkBytesPerSec <= 0 {
		return fmt.Errorf("nic %q: LinkBytesPerSec must be positive", c.Name)
	}
	if len(c.ActiveW) == 0 {
		return fmt.Errorf("nic %q: need at least one tx power level", c.Name)
	}
	if c.TailTimeout < 0 || c.PerPacketOverhead < 0 {
		return fmt.Errorf("nic %q: negative timeout", c.Name)
	}
	return nil
}

// Packet is one frame handed to the NIC. The kernel's packet scheduler
// fills Owner and the timestamps.
type Packet struct {
	ID    uint64
	Owner int
	Bytes int

	Enqueued   sim.Time // app → socket buffer
	Dispatched sim.Time // scheduler → NIC
	Completed  sim.Time // NIC interrupt

	// Retries counts failed transmission attempts (link flap mid-frame);
	// the packet scheduler backs off and retransmits.
	Retries int
}

// NIC is a simulated wireless interface. It transmits one frame at a time;
// queueing is the kernel's job (internal/kernel/netsched).
type NIC struct {
	eng *sim.Engine
	//psbox:allow-snapshotstate construction-time config; identical by scenario reconstruction under the replay-twin contract
	cfg  Config
	rail *power.Rail

	mode     Mode
	txLevel  int
	inflight *Packet
	tailArm  sim.Handle
	tailAt   sim.Time // when the armed tail timer fires
	txArm    sim.Handle

	linkDown bool
	flaps    uint64

	onComplete []func(*Packet)
	onTxFail   []func(*Packet)
	onLinkUp   []func()
	onIdle     []func()

	// Observability (nil-safe; the bus snapshots itself).
	bus *obs.Bus
}

// SetBus routes power-mode and link transitions to a bus.
func (n *NIC) SetBus(b *obs.Bus) { n.bus = b }

// modeKinds pre-renders the mode-change instant kinds so emission never
// formats strings.
var modeKinds = [...]string{"mode-psm", "mode-active", "mode-tail"}

// New builds an idle NIC in PSM.
func New(eng *sim.Engine, cfg Config) (*NIC, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &NIC{eng: eng, cfg: cfg}
	n.rail = power.NewRail(eng, cfg.Name, cfg.PSMW)
	return n, nil
}

// MustNew is New for statically valid configurations.
func MustNew(eng *sim.Engine, cfg Config) *NIC {
	n, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Rail exposes the NIC's metering scope.
func (n *NIC) Rail() *power.Rail { return n.rail }

// Config returns the configuration the NIC was built with.
func (n *NIC) Config() Config { return n.cfg }

// Mode reports the current power mode.
func (n *NIC) Mode() Mode { return n.mode }

// Busy reports whether a frame is on the air.
func (n *NIC) Busy() bool { return n.inflight != nil }

// IdlePower is the PSM power — what sandboxes are fed while scheduled out.
func (n *NIC) IdlePower() power.Watts { return n.cfg.PSMW }

// TxLevel reports the current transmission power level index.
func (n *NIC) TxLevel() int { return n.txLevel }

// SetTxLevel selects a transmission power level; part of the virtualizable
// power state.
func (n *NIC) SetTxLevel(level int) {
	if level < 0 || level >= len(n.cfg.ActiveW) {
		panic(fmt.Sprintf("nic %s: tx level %d out of range", n.cfg.Name, level))
	}
	n.txLevel = level
	n.updatePower()
}

// OnComplete registers the transmission-done interrupt handler.
func (n *NIC) OnComplete(fn func(*Packet)) { n.onComplete = append(n.onComplete, fn) }

// OnTxFail registers the transmission-failed interrupt handler: the frame
// was on the air when the link dropped and must be retransmitted.
func (n *NIC) OnTxFail(fn func(*Packet)) { n.onTxFail = append(n.onTxFail, fn) }

// OnLinkUp registers a handler fired when a downed link recovers; the
// packet scheduler uses it to resume dispatching.
func (n *NIC) OnLinkUp(fn func()) { n.onLinkUp = append(n.onLinkUp, fn) }

// LinkUp reports whether the link is usable.
func (n *NIC) LinkUp() bool { return !n.linkDown }

// Flaps reports how many times the link has gone down.
func (n *NIC) Flaps() uint64 { return n.flaps }

// SetLink raises or drops the link (fault injection: an AP roam, deep
// fade, or firmware watchdog). Dropping the link with a frame on the air
// fails that transmission — the airtime is burned, the radio falls into its
// tail state, and OnTxFail handlers must arrange retransmission. Raising it
// fires OnLinkUp so the scheduler can resume.
func (n *NIC) SetLink(up bool) {
	if up == !n.linkDown {
		return
	}
	if !up {
		n.linkDown = true
		n.flaps++
		n.bus.Instant(obs.CatNIC, "link-down", 0, int64(n.flaps), n.cfg.Name, n.cfg.Name)
		n.bus.Count("nic.link_flaps", 0, n.cfg.Name, 1)
		if p := n.inflight; p != nil {
			n.eng.Cancel(n.txArm)
			n.inflight = nil
			n.setMode(ModeTail)
			n.armTail(n.cfg.TailTimeout)
			for _, fn := range n.onTxFail {
				fn(p)
			}
		}
		return
	}
	n.linkDown = false
	n.bus.Instant(obs.CatNIC, "link-up", 0, int64(n.flaps), n.cfg.Name, n.cfg.Name)
	for _, fn := range n.onLinkUp {
		fn()
	}
}

// OnIdle registers a handler fired whenever the NIC enters PSM (e.g. the
// tail timer expired). The packet scheduler uses it to advance balloon
// state that waits on the tail.
func (n *NIC) OnIdle(fn func()) { n.onIdle = append(n.onIdle, fn) }

// AirTime reports how long a frame of the given size occupies the medium.
func (n *NIC) AirTime(bytes int) sim.Duration {
	return n.cfg.PerPacketOverhead +
		sim.Duration(float64(bytes)/n.cfg.LinkBytesPerSec*1e9)
}

// Transmit puts p on the air. The NIC handles one frame at a time; the
// packet scheduler must wait for completion before dispatching the next.
func (n *NIC) Transmit(p *Packet) {
	if n.inflight != nil {
		panic(fmt.Sprintf("nic %s: transmit while busy", n.cfg.Name))
	}
	if p.Bytes <= 0 {
		panic(fmt.Sprintf("nic %s: empty packet %d", n.cfg.Name, p.ID))
	}
	if n.linkDown {
		panic(fmt.Sprintf("nic %s: transmit with link down", n.cfg.Name))
	}
	n.eng.Cancel(n.tailArm)
	n.inflight = p
	p.Dispatched = n.eng.Now()
	n.setMode(ModeActive)
	n.txArm = n.eng.After(n.AirTime(p.Bytes), func(sim.Time) { n.finish(p) })
}

func (n *NIC) finish(p *Packet) {
	p.Completed = n.eng.Now()
	n.inflight = nil
	n.setMode(ModeTail)
	n.armTail(n.cfg.TailTimeout)
	for _, fn := range n.onComplete {
		fn(p)
	}
}

func (n *NIC) armTail(after sim.Duration) {
	n.eng.Cancel(n.tailArm)
	if after <= 0 {
		n.setMode(ModePSM)
		return
	}
	n.tailAt = n.eng.Now().Add(after)
	n.tailArm = n.eng.After(after, func(sim.Time) { n.setMode(ModePSM) })
}

func (n *NIC) setMode(m Mode) {
	prev := n.mode
	n.mode = m
	if m != prev {
		n.bus.Instant(obs.CatNIC, modeKinds[m], 0, int64(prev), n.cfg.Name, n.cfg.Name)
		n.bus.Count("nic.mode_changes", 0, n.cfg.Name, 1)
	}
	n.updatePower()
	if m == ModePSM && prev != ModePSM {
		for _, fn := range n.onIdle {
			fn()
		}
	}
}

func (n *NIC) updatePower() {
	switch n.mode {
	case ModePSM:
		n.rail.Set(n.cfg.PSMW)
	case ModeActive:
		n.rail.Set(n.cfg.ActiveW[n.txLevel])
	case ModeTail:
		n.rail.Set(n.cfg.TailW)
	}
}

// State is the NIC's virtualizable power state (§4.2): transmission mode
// plus the power-save timer position.
type State struct {
	TxLevel       int
	Mode          Mode
	TailRemaining sim.Duration // meaningful only when Mode == ModeTail
}

// State captures the virtualizable power state. It must not be called with
// a frame on the air: the paper's driver drains in-flight requests before
// switching temporal balloons.
func (n *NIC) State() State {
	if n.inflight != nil {
		panic(fmt.Sprintf("nic %s: State() while transmitting; drain first", n.cfg.Name))
	}
	s := State{TxLevel: n.txLevel, Mode: n.mode}
	if n.mode == ModeTail {
		s.TailRemaining = n.tailAt.Sub(n.eng.Now())
		if s.TailRemaining < 0 {
			s.TailRemaining = 0
		}
	}
	return s
}

// Restore reinstates a captured power state, driving an independent tail
// state machine per sandbox.
func (n *NIC) Restore(s State) {
	if n.inflight != nil {
		panic(fmt.Sprintf("nic %s: Restore() while transmitting; drain first", n.cfg.Name))
	}
	if s.TxLevel < 0 || s.TxLevel >= len(n.cfg.ActiveW) {
		panic(fmt.Sprintf("nic %s: restore tx level %d out of range", n.cfg.Name, s.TxLevel))
	}
	n.txLevel = s.TxLevel
	n.eng.Cancel(n.tailArm)
	switch s.Mode {
	case ModeTail:
		n.setMode(ModeTail)
		n.armTail(s.TailRemaining)
	case ModeActive:
		panic(fmt.Sprintf("nic %s: cannot restore active mode", n.cfg.Name))
	default:
		n.setMode(ModePSM)
	}
}
