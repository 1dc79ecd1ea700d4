package core

import (
	"fmt"
	"math"
	"sort"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

// Checker audits the runtime invariants the psbox design promises, so that
// every simulated run — fault-free or under injection — doubles as a
// correctness audit:
//
//  1. Energy conservation: the battery rail's energy over each audited
//     window equals the sum of the component rails' energies.
//  2. Balloon exclusivity: at most one app is resident on any scope at any
//     instant (the whole point of a resource balloon).
//  3. Backlogs never go negative, even across watchdog resets and link-flap
//     retries that rewind inflight accounting.
//  4. Box observations are monotone: psbox_read never decreases, even when
//     part of the observation is a degraded-mode estimate.
//
// Check is incremental — each call audits the window since the previous
// call — so running it after every System.Run is cheap.
type Checker struct {
	mgr     *Manager
	battery string

	lastCheck sim.Time
	lastRead  map[int]power.Joules
}

// NewChecker builds an invariant checker over a psbox manager; battery
// names the aggregate rail whose energy must equal the component sum.
func NewChecker(mgr *Manager, battery string) *Checker {
	return &Checker{
		mgr:       mgr,
		battery:   battery,
		lastCheck: mgr.k.Engine().Now(),
		lastRead:  make(map[int]power.Joules),
	}
}

// Check audits the window since the previous Check and returns the
// violations found (nil when all invariants hold).
func (c *Checker) Check() []string {
	var out []string
	now := c.mgr.k.Engine().Now()

	// (1) Energy conservation on the battery rail.
	if c.mgr.m.HasRail(c.battery) && now > c.lastCheck {
		bat := c.mgr.m.Energy(c.battery, c.lastCheck, now)
		var sum power.Joules
		for _, name := range c.mgr.m.Rails() {
			if name == c.battery {
				continue
			}
			sum += c.mgr.m.Energy(name, c.lastCheck, now)
		}
		tol := float64(1e-5*math.Abs(bat)) + 1e-9
		if math.Abs(bat-sum) > tol {
			out = append(out, fmt.Sprintf(
				"energy conservation: battery %.12g J != component sum %.12g J over [%v, %v)",
				bat, sum, c.lastCheck, now))
		}
	}

	// (2) Balloon exclusivity violations recorded as they happened.
	out = append(out, c.mgr.takeExclusivityViolations()...)

	// (3) Non-negative backlogs for every app on every queueing scope.
	for _, app := range c.mgr.k.Apps() {
		for _, name := range c.mgr.k.AccelNames() {
			if b := c.mgr.k.Accel(name).Backlog(app.ID); b < 0 {
				out = append(out, fmt.Sprintf("backlog: app %d has %d on %s", app.ID, b, name))
			}
		}
		if n := c.mgr.k.Net(); n != nil {
			if b := n.Backlog(app.ID); b < 0 {
				out = append(out, fmt.Sprintf("backlog: app %d has %d bytes on net", app.ID, b))
			}
		}
	}

	// (4) Monotone box observations.
	ids := make([]int, 0, len(c.mgr.boxes))
	for id := range c.mgr.boxes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r := c.mgr.boxes[id].Read()
		if prev, seen := c.lastRead[id]; seen && r < prev-1e-9 {
			out = append(out, fmt.Sprintf(
				"monotonicity: box of app %d read %.12g J after %.12g J", id, r, prev))
		}
		c.lastRead[id] = r
	}

	c.lastCheck = now
	return out
}
