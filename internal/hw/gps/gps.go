// Package gps models a GPS receiver, the paper's §7(2) extension case.
//
// GPS has exactly one expensive off/suspended→operating transition (a cold
// start that must re-lock satellites) and an operating state whose power is
// unaffected by how many apps consume fixes. Per §4.1, psbox therefore must
// NOT virtualize or reveal the off/suspended state — doing so would either
// cost a cold restart per sandbox or leak other apps' GPS usage through a
// power side channel. While the device is off, sandboxes are fed idle power.
package gps

import (
	"fmt"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

// State is the receiver's coarse power state.
type State int

const (
	// StateOff: powered down; no satellite lock retained.
	StateOff State = iota
	// StateAcquiring: cold start in progress (high power, no fixes yet).
	StateAcquiring
	// StateOperating: locked; fixes delivered; power independent of the
	// number of consuming apps.
	StateOperating
)

func (s State) String() string {
	switch s {
	case StateOff:
		return "off"
	case StateAcquiring:
		return "acquiring"
	case StateOperating:
		return "operating"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config describes the receiver.
type Config struct {
	Name string

	OffW       power.Watts
	AcquireW   power.Watts
	OperatingW power.Watts

	// ColdStartTTFF is the time to first fix from a cold start.
	ColdStartTTFF sim.Duration
}

// DefaultConfig models a typical embedded GNSS module.
func DefaultConfig() Config {
	return Config{
		Name:          "gps",
		OffW:          0.001,
		AcquireW:      0.140,
		OperatingW:    0.065,
		ColdStartTTFF: 28 * sim.Second,
	}
}

func (c Config) validate() error {
	if c.ColdStartTTFF <= 0 {
		return fmt.Errorf("gps %q: ColdStartTTFF must be positive", c.Name)
	}
	if c.OffW < 0 || c.AcquireW < 0 || c.OperatingW < 0 {
		return fmt.Errorf("gps %q: negative power", c.Name)
	}
	return nil
}

// GPS is a simulated receiver with reference-counted users: it powers off
// only when the last user releases it, exactly the device-usage pattern
// whose off/on transitions a power side channel could observe.
type GPS struct {
	eng *sim.Engine
	//psbox:allow-snapshotstate construction-time config; identical by scenario reconstruction under the replay-twin contract
	cfg     Config
	rail    *power.Rail
	state   State
	holders map[int]int // owner → acquire count
	users   int
	lock    sim.Handle

	// ownerRails carry each app's *observable* power view per the §7
	// rule: operating power is revealed, off/suspended and others'
	// acquisitions are hidden behind the off power.
	ownerRails map[int]*power.Rail
}

// New builds a powered-off receiver.
func New(eng *sim.Engine, cfg Config) (*GPS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := &GPS{
		eng:        eng,
		cfg:        cfg,
		state:      StateOff,
		holders:    make(map[int]int),
		ownerRails: make(map[int]*power.Rail),
	}
	g.rail = power.NewRail(eng, cfg.Name, cfg.OffW)
	return g, nil
}

// MustNew is New for statically valid configurations.
func MustNew(eng *sim.Engine, cfg Config) *GPS {
	g, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Rail exposes the receiver's metering scope.
func (g *GPS) Rail() *power.Rail { return g.rail }

// Config returns the configuration the receiver was built with.
func (g *GPS) Config() Config { return g.cfg }

// State reports the current coarse power state.
func (g *GPS) State() State { return g.state }

// IdlePower is what sandboxes are fed while the device is off/suspended —
// the off power, which reveals nothing about other apps' usage.
func (g *GPS) IdlePower() power.Watts { return g.cfg.OffW }

// Acquire registers a user on behalf of an app. The first user triggers a
// cold start.
func (g *GPS) Acquire(owner int) {
	g.users++
	g.holders[owner]++
	if g.users == 1 && g.state == StateOff {
		g.setState(StateAcquiring)
		g.lock = g.eng.After(g.cfg.ColdStartTTFF, func(sim.Time) { g.setState(StateOperating) })
	}
	g.refreshOwnerRails()
}

// Release drops an app's user. The last release powers the device off and
// loses the satellite lock.
func (g *GPS) Release(owner int) {
	if g.users == 0 || g.holders[owner] == 0 {
		panic(fmt.Sprintf("gps %s: release without acquire (owner %d)", g.cfg.Name, owner))
	}
	g.users--
	g.holders[owner]--
	if g.holders[owner] == 0 {
		delete(g.holders, owner)
	}
	if g.users == 0 {
		g.eng.Cancel(g.lock)
		g.setState(StateOff)
	}
	g.refreshOwnerRails()
}

// Holds reports whether an app currently holds the receiver.
func (g *GPS) Holds(owner int) bool { return g.holders[owner] > 0 }

// OwnerRail returns (creating on demand) an app's observable-power rail:
// what a psbox bound to the GPS reveals to that app.
func (g *GPS) OwnerRail(owner int) *power.Rail {
	r, ok := g.ownerRails[owner]
	if !ok {
		r = power.NewRail(g.eng, fmt.Sprintf("%s-app%d", g.cfg.Name, owner), g.ObservablePower(g.Holds(owner)))
		g.ownerRails[owner] = r
	}
	return r
}

func (g *GPS) setState(s State) {
	g.state = s
	switch s {
	case StateOff:
		g.rail.Set(g.cfg.OffW)
	case StateAcquiring:
		g.rail.Set(g.cfg.AcquireW)
	case StateOperating:
		g.rail.Set(g.cfg.OperatingW)
	}
	g.refreshOwnerRails()
}

func (g *GPS) refreshOwnerRails() {
	for owner, r := range g.ownerRails {
		r.Set(g.ObservablePower(g.Holds(owner)))
	}
}

// ObservablePower reports what a psbox bound to the GPS may observe right
// now (§7): the true power while operating — concurrency does not entangle
// it — but only the off-state idle power during off/suspended and
// acquisition phases, which would otherwise leak other apps' usage.
func (g *GPS) ObservablePower(ownerHoldsDevice bool) power.Watts {
	switch g.state {
	case StateOperating:
		return g.cfg.OperatingW
	case StateAcquiring:
		if ownerHoldsDevice {
			return g.cfg.AcquireW
		}
		return g.cfg.OffW
	default:
		return g.cfg.OffW
	}
}
