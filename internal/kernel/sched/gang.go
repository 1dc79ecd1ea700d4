package sched

import (
	"fmt"

	"psbox/internal/sim"
)

// Gang scheduling is the paper's §7 alternative enforcement for spatial
// balloons: instead of demand-driven coscheduling windows paid for with
// loans, the sandboxed app receives a fixed, periodic reservation of all
// cores — the classic real-time-kernel mechanism ("directly supports
// executing all threads in a psbox (a gang) simultaneously and enforces
// mutual exclusion among gangs").
//
// The trade-off this file exists to expose: gang slots are reserved
// whether or not the gang has work, so an idle gang wastes whole-machine
// time that loan-based coscheduling would have returned to others; in
// exchange, the gang's residency is strictly periodic and needs no loan
// accounting.

// GangConfig describes a fixed reservation.
type GangConfig struct {
	// Period is the reservation cycle length.
	Period sim.Duration
	// Slot is the whole-machine time the gang owns each period. Must be
	// positive and less than Period.
	Slot sim.Duration
}

func (c GangConfig) validate() error {
	if c.Period <= 0 || c.Slot <= 0 || c.Slot >= c.Period {
		return fmt.Errorf("sched: gang slot must satisfy 0 < slot < period (got %v of %v)", c.Slot, c.Period)
	}
	return nil
}

// ActivateGang encloses appID's tasks in a gang with a fixed periodic
// reservation. It is mutually exclusive with ActivateGroup for the same
// app; like groups, at most one gang or group window is open at a time.
func (s *Scheduler) ActivateGang(appID int, cfg GangConfig) (*Group, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := s.ActivateGroup(appID)
	g.gang = true
	g.gangCfg = cfg
	// If demand-driven activation already opened a window, close it: gang
	// windows come only from the timer.
	if g.resident {
		s.endCosched(g)
	}
	s.scheduleGangWindow(g)
	return g, nil
}

// DeactivateGang dissolves the gang.
func (s *Scheduler) DeactivateGang(appID int) {
	g, ok := s.groups[appID]
	if !ok || !g.gang {
		return
	}
	g.gang = false
	if g.gangTimer != (sim.Handle{}) {
		s.eng.Cancel(g.gangTimer)
		g.gangTimer = sim.Handle{}
	}
	s.DeactivateGroup(appID)
}

func (s *Scheduler) scheduleGangWindow(g *Group) {
	g.gangTimer = s.eng.After(g.gangCfg.Period-g.gangCfg.Slot, func(sim.Time) {
		g.gangTimer = sim.Handle{}
		s.openGangWindow(g)
	})
}

func (s *Scheduler) openGangWindow(g *Group) {
	if !g.active || !g.gang {
		return
	}
	if s.resident != nil {
		// Another balloon holds the machine; retry shortly. Gangs are
		// mutually excluded, as are gang and loan windows.
		g.gangTimer = s.eng.After(tickPeriod, func(sim.Time) {
			g.gangTimer = sim.Handle{}
			s.openGangWindow(g)
		})
		return
	}
	// Force-open from core 0: unlike demand windows, the reservation opens
	// even if the gang has nothing runnable (the slot is owned).
	c := s.cores[0]
	s.bill(0)
	if prev := c.curTask; prev != nil {
		s.stopCurrent(0)
		s.enqueue(0, prev)
	}
	s.dequeue(0, g.entities[0])
	s.beginCosched(g, 0)
	// Close exactly Slot later.
	s.eng.After(g.gangCfg.Slot, func(sim.Time) {
		if g.resident {
			s.endCosched(g)
		}
		if g.active && g.gang {
			s.scheduleGangWindow(g)
		}
	})
}
