package sched

import (
	"fmt"

	"psbox/internal/obs"
	"psbox/internal/sim"
)

// groupEntity is the per-core scheduling entity of a psbox group, analogous
// to a cgroup's per-core sched_entity (§4.2: "a psbox has a set of
// scheduling entities {E}, one entity on each core").
type groupEntity struct {
	grp  *Group
	core int

	vr   sim.Duration
	loan sim.Duration
	want bool // wants out: needs a(n extra) loan to keep its core

	onCPU   bool
	running *Task   // group task on CPU (nil ⇒ forced idle)
	queue   []*Task // runnable, not-running group tasks on this core
}

func (g *groupEntity) vrun() sim.Duration { return g.vr }
func (g *groupEntity) entityName() string {
	return fmt.Sprintf("psbox-app%d/core%d", g.grp.AppID, g.core)
}

// Group is the CPU-side representation of one power sandbox: the container
// of per-core entities, coscheduled as a spatial resource balloon.
type Group struct {
	AppID     int
	entities  []*groupEntity
	active    bool
	resident  bool
	announced bool // GroupResident(true) fired: every core has switched

	// Gang mode (§7 alternative): fixed periodic reservation instead of
	// demand-driven windows with loans.
	gang      bool
	gangCfg   GangConfig
	gangTimer sim.Handle

	pendingIPI []sim.Handle // per-core remote schedule-in events

	// Metrics.
	residentTime sim.Duration
	residentAt   sim.Time
	windows      uint64
	loanSettled  sim.Duration
}

// Resident reports whether the group's coscheduling window is open.
func (g *Group) Resident() bool { return g.resident }

// Windows reports how many coscheduling windows have completed.
func (g *Group) Windows() uint64 { return g.windows }

// ResidentTime reports accumulated coscheduling time.
func (g *Group) ResidentTime() sim.Duration { return g.residentTime }

// LoanSettled reports the total loan volume settled at window ends — the
// cost charged to the sandboxed app for its lost sharing opportunities.
func (g *Group) LoanSettled() sim.Duration { return g.loanSettled }

// EntityVRuntime exposes a per-core entity vruntime for tests and traces.
func (g *Group) EntityVRuntime(core int) sim.Duration { return g.entities[core].vr }

// ActivateGroup encloses appID's tasks in a psbox group: from now on they
// execute only inside coscheduled spatial balloons. Returns the group.
func (s *Scheduler) ActivateGroup(appID int) *Group {
	g, ok := s.groups[appID]
	if !ok {
		g = &Group{AppID: appID}
		for c := range s.cores {
			g.entities = append(g.entities, &groupEntity{grp: g, core: c})
		}
		g.pendingIPI = make([]sim.Handle, len(s.cores))
		s.groups[appID] = g
	}
	if g.active {
		return g
	}
	g.active = true
	// Fair (re)entry: an entity starts no earlier than the local minimum,
	// so a stale low vruntime from a previous window is not an advantage.
	for _, ge := range g.entities {
		if min := s.minVrun(ge.core); ge.vr < min {
			ge.vr = min
		}
	}
	// Move the app's tasks into the group.
	for _, t := range s.tasks {
		if t.AppID != appID || t.state == StateDead {
			continue
		}
		ge := g.entities[t.Core]
		t.ge = ge
		switch t.state {
		case StateRunning:
			s.bill(t.Core)
			s.stopCurrent(t.Core)
			t.state = StateRunnable
			ge.queue = append(ge.queue, t)
		case StateRunnable:
			if s.isParked(t) {
				continue // stays parked; delivered into the group on gate open
			}
			if !s.dequeue(t.Core, t) {
				panic(fmt.Sprintf("sched: runnable task %s missing from rq", t.Name))
			}
			ge.queue = append(ge.queue, t)
		}
	}
	for _, ge := range g.entities {
		if len(ge.queue) > 0 {
			s.enqueue(ge.core, ge)
		}
	}
	for c := range s.cores {
		s.maybePreempt(c)
		if s.cores[c].cur == nil {
			s.reschedule(c)
		}
	}
	return g
}

// DeactivateGroup dissolves appID's group: tasks return to ordinary
// per-core scheduling, carrying the group's accrued disadvantage with them.
func (s *Scheduler) DeactivateGroup(appID int) {
	g, ok := s.groups[appID]
	if !ok || !g.active {
		return
	}
	// Mark inactive first so the window closed below cannot instantly
	// re-open from endCosched's own rescheduling.
	g.active = false
	if g.resident {
		s.endCosched(g)
	}
	for _, ge := range g.entities {
		s.dequeue(ge.core, ge)
		ge.queue = ge.queue[:0]
	}
	for _, t := range s.tasks {
		if t.AppID != appID || t.ge == nil {
			continue
		}
		ge := t.ge
		t.ge = nil
		// The loan repayment landed on the entity; the tasks inherit it so
		// leaving the box does not discard the charge.
		if t.vr < ge.vr {
			t.vr = ge.vr
		}
		if t.state == StateRunnable && !s.isParked(t) {
			s.enqueue(t.Core, t)
		}
	}
	for c := range s.cores {
		s.maybePreempt(c)
		if s.cores[c].cur == nil {
			s.reschedule(c)
		}
	}
}

// beginCosched opens a coscheduling window for g, initiated by initCore
// having picked g's entity (§4.2 steps 1–2). The initiating core switches
// immediately; the others are shot down by IPI after ipiDelay.
func (s *Scheduler) beginCosched(g *Group, initCore int) {
	if s.residentGroup() != nil {
		panic("sched: coscheduling window while another group is resident")
	}
	g.resident = true
	s.resident = g
	g.residentAt = s.eng.Now()
	g.windows++
	s.shootdowns++
	s.bus.Instant(obs.CatSched, "cosched-begin", g.AppID, int64(initCore), s.rail, "")
	s.bus.Count("sched.shootdowns", 0, s.rail, 1)
	s.bus.Count("sched.cosched_windows", g.AppID, s.rail, 1)
	ge := g.entities[initCore]
	s.cores[initCore].cur = ge
	ge.onCPU = true
	ge.loan = s.initialLoan(ge)
	s.groupPickLocal(ge)
	for c := range s.cores {
		if c == initCore {
			continue
		}
		// The remote entity must not be independently schedulable while the
		// IPI is in flight.
		s.dequeue(c, g.entities[c])
		core := c
		g.pendingIPI[c] = s.eng.After(ipiDelay, func(sim.Time) {
			s.remoteScheduleIn(g, core)
		})
	}
	s.checkAnnounce(g)
}

// checkAnnounce fires GroupResident(true) once the balloon boundary is
// fully established — i.e., every core has switched to the group's entity.
// Power observation starts here: during IPI transit other apps are still
// winding down, so their activity must not reach the sandbox's meter.
func (s *Scheduler) checkAnnounce(g *Group) {
	if g.announced || !g.resident {
		return
	}
	for _, ge := range g.entities {
		if !ge.onCPU {
			return
		}
	}
	g.announced = true
	s.bus.Instant(obs.CatSched, "group-resident", g.AppID, 1, s.rail, "")
	if s.cbs.GroupResident != nil {
		s.cbs.GroupResident(g.AppID, true)
	}
}

// initialLoan computes Δ for an entity being scheduled in: the credit gap
// to the most favorable competing entity on its core (§4.2 step 2).
func (s *Scheduler) initialLoan(ge *groupEntity) sim.Duration {
	best, ok := s.minOtherVrun(ge.core, ge.grp)
	if !ok || ge.vr <= best {
		return 0
	}
	return ge.vr - best
}

// remoteScheduleIn is the IPI handler on a shot-down core (§4.2 step 2).
func (s *Scheduler) remoteScheduleIn(g *Group, core int) {
	if !g.resident {
		return // window ended before the IPI landed
	}
	c := s.cores[core]
	s.bill(core)
	if prev := c.curTask; prev != nil {
		s.stopCurrent(core)
		s.enqueue(core, prev)
	}
	c.cur = g.entities[core]
	ge := g.entities[core]
	ge.onCPU = true
	ge.loan = s.initialLoan(ge)
	s.groupPickLocal(ge)
	s.checkAnnounce(g)
}

// residentGroup returns the group currently holding a coscheduling window,
// nil if none. Spatial balloons occupy every core, so at most one window is
// open at a time.
func (s *Scheduler) residentGroup() *Group { return s.resident }

// groupPickLocal chooses what an on-CPU entity executes: the minimum-
// vruntime queued group task, or forced idle when the app has nothing
// runnable on this core.
func (s *Scheduler) groupPickLocal(ge *groupEntity) {
	if ge.running != nil {
		return
	}
	best := -1
	for i, t := range ge.queue {
		if best < 0 || t.vr < ge.queue[best].vr {
			best = i
		}
	}
	if best < 0 {
		s.goIdle(ge.core)
		return
	}
	t := ge.queue[best]
	ge.queue = append(ge.queue[:best], ge.queue[best+1:]...)
	ge.running = t
	s.bus.Instant(obs.CatSched, "group-pick", t.AppID, int64(ge.core), s.rail, t.Name)
	s.runTask(ge.core, t)
}

// groupTaskWake handles a wakeup of a task whose app is sandboxed.
func (s *Scheduler) groupTaskWake(t *Task) {
	ge := t.ge
	if ge.grp.resident && ge.onCPU && ge.running == nil {
		// A forced-idle core inside the balloon picks the waker up at once.
		ge.running = t
		s.bill(ge.core)
		s.runTask(ge.core, t)
		return
	}
	ge.queue = append(ge.queue, t)
	if !ge.grp.resident {
		if !s.contains(ge.core, ge) {
			s.enqueue(ge.core, ge)
		}
		s.maybePreempt(ge.core)
	}
}

func (s *Scheduler) contains(core int, e rqe) bool {
	for _, x := range s.cores[core].rq {
		if x == e {
			return true
		}
	}
	return false
}

// groupTaskBlock handles blocking of a sandboxed task.
func (s *Scheduler) groupTaskBlock(t *Task) {
	ge := t.ge
	g := ge.grp
	if t.state == StateRunning {
		s.bill(ge.core)
		s.stopCurrent(ge.core)
		t.state = StateBlocked
		if s.groupHasRunnable(g) {
			s.groupPickLocal(ge)
		} else if g.resident && !g.gang {
			// Demand windows close when the app goes idle; a gang's
			// reservation holds (and wastes) its slot regardless.
			s.endCosched(g)
		}
		return
	}
	// Runnable: remove from its entity queue.
	for i, q := range ge.queue {
		if q == t {
			ge.queue = append(ge.queue[:i], ge.queue[i+1:]...)
			break
		}
	}
	t.state = StateBlocked
	if !g.resident && len(ge.queue) == 0 {
		s.dequeue(ge.core, ge)
	}
}

// groupHasRunnable reports whether any task of g is runnable or running.
func (s *Scheduler) groupHasRunnable(g *Group) bool {
	for _, ge := range g.entities {
		if ge.running != nil || len(ge.queue) > 0 {
			return true
		}
	}
	return false
}

// groupTick accrues loans and closes the window when every contested
// core's entity would need a(n extra) loan to continue (§4.2 steps 3–4).
// Entities on cores with no competing work are indifferent: they neither
// need loans nor veto the window's end — otherwise a single uncontested
// core would hold the balloon open forever and starve competitors on the
// other cores.
func (s *Scheduler) groupTick() {
	g := s.residentGroup()
	if g == nil || g.gang {
		return // gang windows are bounded by their timer, not by loans
	}
	allOn, allWant, anyContested := true, true, false
	for _, ge := range g.entities {
		if !ge.onCPU {
			allOn = false
			continue
		}
		best, ok := s.minOtherVrun(ge.core, g)
		if !ok {
			ge.want = false
			continue
		}
		anyContested = true
		if ge.vr > best {
			if need := ge.vr - best; need > ge.loan {
				ge.loan = need
			}
			ge.want = true
		} else {
			ge.want = false
			allWant = false
		}
	}
	if allOn && anyContested && allWant {
		s.endCosched(g)
	}
}

// groupLocalTick applies within-balloon preemption among the app's own
// tasks on one core.
func (s *Scheduler) groupLocalTick(ge *groupEntity) {
	if ge.running == nil {
		s.groupPickLocal(ge)
		return
	}
	best := -1
	for i, t := range ge.queue {
		if best < 0 || t.vr < ge.queue[best].vr {
			best = i
		}
	}
	if best >= 0 && ge.queue[best].vr+granularity < ge.running.vr {
		prev := ge.running
		s.stopCurrent(ge.core)
		ge.queue = append(ge.queue, prev)
		s.groupPickLocal(ge)
	}
}

// endCosched closes g's window: settles loans by even redistribution
// (§4.2 step 5) and resumes ordinary scheduling on every core.
func (s *Scheduler) endCosched(g *Group) {
	if !g.resident {
		return
	}
	for c := range s.cores {
		s.bill(c)
	}
	// Loan repayment (§4.2 step 5): beyond the runtime already billed while
	// coscheduled (including forced idle), the group pays back the loans
	// that let its entities jump their queues. The total is split evenly
	// across the per-core entities for long-term fairness over all cores.
	// This extra charge is what disadvantages the sandboxed app in future
	// competition and confines the balloon's cost to it.
	var total sim.Duration
	for _, ge := range g.entities {
		total += ge.loan
	}
	if g.gang {
		total = 0 // fixed reservations carry no loans to repay
	}
	share := sim.Duration(int64(total) / int64(len(s.cores)))
	for _, ge := range g.entities {
		if !s.DisableLoanRepayment {
			ge.vr += share
		}
		ge.loan = 0
		ge.want = false
	}
	g.loanSettled += total
	for _, h := range g.pendingIPI {
		s.eng.Cancel(h)
	}
	g.resident = false
	s.resident = nil
	g.residentTime += s.eng.Now().Sub(g.residentAt)
	s.shootdowns++
	s.bus.Span(obs.CatSched, "cosched", g.AppID, int64(total), s.rail, "", g.residentAt)
	if s.cbs.Balloon != nil {
		s.cbs.Balloon(g.AppID, g.residentAt, s.eng.Now())
	}
	s.bus.Count("sched.shootdowns", 0, s.rail, 1)
	for _, ge := range g.entities {
		if !ge.onCPU {
			continue
		}
		c := s.cores[ge.core]
		if c.curTask != nil {
			t := c.curTask
			s.stopCurrent(ge.core)
			ge.queue = append(ge.queue, t)
		}
		c.cur = nil
		ge.onCPU = false
	}
	if g.active {
		for _, ge := range g.entities {
			if len(ge.queue) > 0 && !s.contains(ge.core, ge) {
				s.enqueue(ge.core, ge)
			}
		}
	}
	if g.announced {
		g.announced = false
		s.bus.Instant(obs.CatSched, "group-resident", g.AppID, 0, s.rail, "")
		if s.cbs.GroupResident != nil {
			s.cbs.GroupResident(g.AppID, false)
		}
	}
	for c := range s.cores {
		if s.cores[c].cur == nil {
			s.reschedule(c)
		}
	}
}
