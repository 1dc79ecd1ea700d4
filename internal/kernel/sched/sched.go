// Package sched implements the simulated kernel's multicore CPU scheduler:
// a CFS-like fair scheduler (per-core runqueues ordered by virtual runtime)
// extended with the paper's §4.2 psbox mechanisms — spatial resource
// balloons realized as coscheduled group entities, IPI task shootdown, and
// scheduling loans that charge lost sharing opportunities to the sandboxed
// app.
package sched

import (
	"fmt"

	"psbox/internal/obs"
	"psbox/internal/sim"
)

// DefaultWeight is the scheduling weight of an ordinary task (cf. the CFS
// weight of nice-0 tasks).
const DefaultWeight = 1024

// State is a task's scheduling state.
type State int

const (
	// StateBlocked: not runnable (sleeping or waiting on I/O).
	StateBlocked State = iota
	// StateRunnable: waiting on a runqueue.
	StateRunnable
	// StateRunning: currently executing on a core.
	StateRunning
	// StateDead: exited.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateBlocked:
		return "blocked"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Task is one schedulable thread. Tasks have static core affinity (the
// simulated platforms have two cores and the workloads pin their threads,
// as the paper's benchmarks effectively do).
type Task struct {
	ID     int
	AppID  int
	Name   string
	Core   int
	Weight int64

	vr      sim.Duration
	state   State
	ge      *groupEntity // non-nil while the app's psbox group is active
	started sim.Time     // when it last went on-CPU

	// cpuTime accumulates actual execution time, for throughput/usage
	// reporting.
	cpuTime sim.Duration
}

// VRuntime reports the task's weighted virtual runtime.
func (t *Task) VRuntime() sim.Duration { return t.vr }

// State reports the scheduling state.
func (t *Task) State() State { return t.state }

// CPUTime reports total on-CPU time consumed.
func (t *Task) CPUTime() sim.Duration { return t.cpuTime }

// The scheduler's tuning: a CFS-like configuration on an embedded
// dual-core.
const (
	// tickPeriod is the scheduler tick period (Linux: 1–10 ms).
	tickPeriod = 1 * sim.Millisecond

	// granularity is the minimum vruntime lead a waiting entity needs to
	// preempt at a tick, bounding context-switch churn.
	granularity = 500 * sim.Microsecond

	// wakeupBonus caps how far behind the runqueue minimum a waking
	// sleeper may be placed (CFS sleeper fairness).
	wakeupBonus = 2 * sim.Millisecond

	// ipiDelay is the latency of a task-shootdown inter-processor
	// interrupt; remote cores join/leave a coscheduling window this much
	// later. This is the "tens of µs" scheduling-latency cost of §6.2.
	ipiDelay = 15 * sim.Microsecond
)

// Callbacks connect the scheduler to the kernel's execution engine and to
// the psbox layer. All callbacks may be nil.
type Callbacks struct {
	// RunTask fires when a core starts executing t.
	RunTask func(core int, t *Task)
	// StopTask fires when a core stops executing t (preemption, block,
	// exit, or balloon switch).
	StopTask func(core int, t *Task)
	// CoreIdle fires when a core goes idle — including forced idle inside
	// a spatial balloon, which is precisely what lowers the power in the
	// paper's Fig. 7(b).
	CoreIdle func(core int)
	// GroupResident fires when a psbox group's coscheduling window begins
	// (resident=true) or ends. The psbox core uses it for residency
	// tracking and power-state virtualization.
	GroupResident func(appID int, resident bool)
	// Balloon fires when a group's coscheduling window [start, end)
	// closes; the kernel keeps it in the CPU's occupancy record.
	Balloon func(appID int, start, end sim.Time)
}

type coreState struct {
	id       int
	rq       []rqe // runnable, not-running entities
	cur      rqe   // nil when idle
	curTask  *Task // task actually executing (nil under forced idle or idle)
	lastBill sim.Time
}

// rqe is a runqueue entity: either a plain task or a psbox group entity.
type rqe interface {
	vrun() sim.Duration
	entityName() string
}

func (t *Task) vrun() sim.Duration { return t.vr }
func (t *Task) entityName() string { return t.Name }

// Scheduler is the multicore CPU scheduler.
type Scheduler struct {
	eng *sim.Engine
	//psbox:allow-snapshotstate wiring: callback closures installed at construction
	cbs      Callbacks
	cores    []*coreState
	groups   map[int]*Group
	tasks    []*Task
	resident *Group // the group holding the open coscheduling window
	nextID   int

	// Throttle gates (the psbox budget-enforcement hook): while an app's
	// gate is closed its tasks are parked — runnable in the kernel's eyes
	// but withheld from every runqueue — so the sandbox manager can
	// duty-cycle an over-budget app off the CPU without touching its
	// program state. parked keeps park order, which is the delivery order
	// when the gate reopens.
	gated  map[int]bool
	parked []*Task

	// Metrics.
	ctxSwitches  uint64
	shootdowns   uint64
	wakeLatTotal sim.Duration
	wakeLatCount uint64
	wakePending  map[*Task]sim.Time

	// Observability (nil-safe; the bus snapshots itself).
	bus *obs.Bus
	//psbox:allow-snapshotstate observability wiring installed at construction, not replayed state
	rail string

	// DisableLoanRepayment turns off the §4.2 step-5 loan settlement.
	// Only the ablation study sets it, right after construction: without
	// repayment the sandboxed app does not pay for its lost sharing
	// opportunities and the Fig. 8 confinement degrades.
	DisableLoanRepayment bool `psbox:"config"`
}

// SetBus routes the scheduler's trace events and metrics to a bus. rail
// names the CPU power rail so run spans join with meter samples in the
// attribution timeline.
func (s *Scheduler) SetBus(b *obs.Bus, rail string) {
	s.bus = b
	s.rail = rail
}

// New builds a scheduler over cores CPU cores and arms its tick.
func New(eng *sim.Engine, cores int, cbs Callbacks) *Scheduler {
	if cores <= 0 {
		panic("sched: need at least one core")
	}
	s := &Scheduler{
		eng:         eng,
		cbs:         cbs,
		groups:      make(map[int]*Group),
		wakePending: make(map[*Task]sim.Time),
		gated:       make(map[int]bool),
	}
	for i := 0; i < cores; i++ {
		s.cores = append(s.cores, &coreState{id: i, lastBill: eng.Now()})
	}
	eng.After(tickPeriod, s.tick)
	return s
}

// NewTask registers a new task pinned to core, initially blocked. Call
// Wake to make it runnable.
func (s *Scheduler) NewTask(appID int, name string, core int, weight int64) *Task {
	if core < 0 || core >= len(s.cores) {
		panic(fmt.Sprintf("sched: core %d out of range", core))
	}
	if weight <= 0 {
		weight = DefaultWeight
	}
	s.nextID++
	t := &Task{
		ID:     s.nextID,
		AppID:  appID,
		Name:   name,
		Core:   core,
		Weight: weight,
		state:  StateBlocked,
		vr:     s.minVrun(core), // start at the local minimum, like fork
	}
	if g, ok := s.groups[appID]; ok && g.active {
		t.ge = g.entities[core]
	}
	s.tasks = append(s.tasks, t)
	return t
}

// Shootdowns reports how many coscheduling shootdown rounds occurred.
func (s *Scheduler) Shootdowns() uint64 { return s.shootdowns }

// MeanWakeupLatency reports the mean delay between Wake and first
// execution, the §6.2 scheduling-latency metric.
func (s *Scheduler) MeanWakeupLatency() sim.Duration {
	if s.wakeLatCount == 0 {
		return 0
	}
	return sim.Duration(int64(s.wakeLatTotal) / int64(s.wakeLatCount))
}

// minVrun reports the smallest vruntime among entities on core (runnable or
// running); zero if the core is empty.
func (s *Scheduler) minVrun(core int) sim.Duration {
	c := s.cores[core]
	var best sim.Duration
	have := false
	consider := func(e rqe) {
		if e == nil {
			return
		}
		if !have || e.vrun() < best {
			best = e.vrun()
			have = true
		}
	}
	for _, e := range c.rq {
		consider(e)
	}
	consider(c.cur)
	if !have {
		return 0
	}
	return best
}

// minOtherVrun reports the smallest vruntime among runnable entities on
// core excluding a group's entity; the bool is false when there is no
// competitor. Used for loan computation.
func (s *Scheduler) minOtherVrun(core int, g *Group) (sim.Duration, bool) {
	c := s.cores[core]
	var best sim.Duration
	have := false
	for _, e := range c.rq {
		if ge, ok := e.(*groupEntity); ok && ge.grp == g {
			continue
		}
		if !have || e.vrun() < best {
			best = e.vrun()
			have = true
		}
	}
	return best, have
}

// bill charges CPU time since the core's last billing point to whatever is
// running there: the task (if any) and, under a balloon, the group entity —
// including forced-idle time, which is exactly how the kernel "bills all
// the resource occupied by the balloons to App" (§4.1).
func (s *Scheduler) bill(core int) {
	c := s.cores[core]
	now := s.eng.Now()
	d := now.Sub(c.lastBill)
	c.lastBill = now
	if d <= 0 {
		return
	}
	if c.curTask != nil {
		c.curTask.cpuTime += d
		c.curTask.vr += weighted(d, c.curTask.Weight)
	}
	if ge, ok := c.cur.(*groupEntity); ok {
		ge.vr += weighted(d, DefaultWeight)
	}
}

func weighted(d sim.Duration, weight int64) sim.Duration {
	return sim.Duration(int64(d) * DefaultWeight / weight)
}

// enqueue puts e on core's runqueue.
func (s *Scheduler) enqueue(core int, e rqe) {
	c := s.cores[core]
	for _, x := range c.rq {
		if x == e {
			panic(fmt.Sprintf("sched: %s already enqueued on core %d", e.entityName(), core))
		}
	}
	c.rq = append(c.rq, e)
}

// dequeue removes e from core's runqueue; reports whether it was present.
func (s *Scheduler) dequeue(core int, e rqe) bool {
	c := s.cores[core]
	for i, x := range c.rq {
		if x == e {
			c.rq = append(c.rq[:i], c.rq[i+1:]...)
			return true
		}
	}
	return false
}

// pickMin returns the minimum-vruntime entity on core's runqueue, nil if
// empty. While a spatial balloon is resident, other groups' entities are
// not eligible: a balloon occupies every core, so windows serialize.
func (s *Scheduler) pickMin(core int) rqe {
	c := s.cores[core]
	var best rqe
	for _, e := range c.rq {
		if ge, isGroup := e.(*groupEntity); isGroup {
			// Gang windows come only from the reservation timer; loan
			// windows only when no other balloon is open and initiation is
			// credit-eligible.
			if ge.grp.gang || s.resident != nil || !s.groupMayInitiate(ge) {
				continue
			}
		}
		if best == nil || e.vrun() < best.vrun() {
			best = e
		}
	}
	return best
}

// groupMayInitiate reports whether ge may open a coscheduling window from
// its core. From a contested core, winning the min-vruntime pick suffices
// (the paper's rule: the balloon borrows loans for the remote cores). From
// an uncontested core, the group must be loan-free on every contested core
// — otherwise an empty core would re-open the window the instant it
// closed, starving competitors elsewhere.
func (s *Scheduler) groupMayInitiate(ge *groupEntity) bool {
	if _, contested := s.minOtherVrun(ge.core, ge.grp); contested {
		return true
	}
	for _, other := range ge.grp.entities {
		if other == ge {
			continue
		}
		if best, ok := s.minOtherVrun(other.core, ge.grp); ok && other.vr > best {
			return false
		}
	}
	return true
}

// Wake makes t runnable and may preempt. Waking a dead or already-runnable
// task panics: the kernel must not double-wake.
func (s *Scheduler) Wake(t *Task) {
	switch t.state {
	case StateDead:
		panic(fmt.Sprintf("sched: waking dead task %s", t.Name))
	case StateRunnable, StateRunning:
		panic(fmt.Sprintf("sched: waking %s task %s", t.state, t.Name))
	}
	t.state = StateRunnable
	s.wakePending[t] = s.eng.Now()
	// Sleeper fairness: do not let a long sleeper monopolize the CPU, and
	// do not punish it for having slept.
	if min := s.minVrun(t.Core); t.vr < min-wakeupBonus {
		t.vr = min - wakeupBonus
	}
	if s.gated[t.AppID] {
		// A wake behind a closed gate parks: the task becomes runnable but
		// is delivered to its runqueue only when the gate reopens.
		s.parked = append(s.parked, t)
		return
	}
	if t.ge != nil {
		s.groupTaskWake(t)
		return
	}
	s.enqueue(t.Core, t)
	s.maybePreempt(t.Core)
}

// isParked reports whether t is currently withheld by a closed gate.
func (s *Scheduler) isParked(t *Task) bool {
	for _, p := range s.parked {
		if p == t {
			return true
		}
	}
	return false
}

// unpark removes t from the parked list; reports whether it was parked.
func (s *Scheduler) unpark(t *Task) bool {
	for i, p := range s.parked {
		if p == t {
			s.parked = append(s.parked[:i], s.parked[i+1:]...)
			return true
		}
	}
	return false
}

// Gated reports whether an app's throttle gate is closed.
func (s *Scheduler) Gated(appID int) bool { return s.gated[appID] }

// SetAppGate opens or closes an app's throttle gate. Closing parks every
// runnable or running task of the app (running ones are context-switched
// out first, preserving their burst progress) and closes the app's
// coscheduling window if it held one; new wakes park until the gate
// reopens. Opening delivers the parked tasks back to their runqueues in
// park order. Parked time counts as involuntary waiting in the app's
// demand accounting — exactly like losing the CPU to competition — so the
// virtual governor's utilization signal stays honest under throttling.
// Both directions are idempotent.
func (s *Scheduler) SetAppGate(appID int, open bool) {
	if open {
		if !s.gated[appID] {
			return
		}
		delete(s.gated, appID)
		kept := s.parked[:0]
		var deliver []*Task
		for _, t := range s.parked {
			if t.AppID == appID {
				deliver = append(deliver, t)
			} else {
				kept = append(kept, t)
			}
		}
		s.parked = kept
		// Fair re-entry, exactly as in ActivateGroup: vruntime froze while
		// parked, so without the clamp a reopened app would "catch up" its
		// entire parked time at the competitors' expense — turning the
		// throttle into a deferral instead of a confinement.
		if g, ok := s.groups[appID]; ok && g.active {
			for _, ge := range g.entities {
				if min := s.minVrun(ge.core); ge.vr < min {
					ge.vr = min
				}
			}
		}
		for _, t := range deliver {
			if min := s.minVrun(t.Core); t.vr < min {
				t.vr = min
			}
			if t.ge != nil {
				s.groupTaskWake(t)
				continue
			}
			s.enqueue(t.Core, t)
			s.maybePreempt(t.Core)
		}
		return
	}
	if s.gated[appID] {
		return
	}
	s.gated[appID] = true
	for _, t := range s.tasks {
		if t.AppID != appID {
			continue
		}
		switch t.state {
		case StateRunning:
			s.bill(t.Core)
			s.stopCurrent(t.Core) // leaves the task runnable, not requeued
			s.parked = append(s.parked, t)
		case StateRunnable:
			if t.ge != nil {
				ge := t.ge
				for i, q := range ge.queue {
					if q == t {
						ge.queue = append(ge.queue[:i], ge.queue[i+1:]...)
						break
					}
				}
			} else {
				s.dequeue(t.Core, t)
			}
			s.parked = append(s.parked, t)
		}
	}
	if g, ok := s.groups[appID]; ok && g.active {
		if g.resident && !g.gang && !s.groupHasRunnable(g) {
			// Demand windows close when the app has nothing runnable; a
			// gang's reservation holds its slot regardless, forcing idle.
			s.endCosched(g)
		} else if !g.resident {
			for _, ge := range g.entities {
				if len(ge.queue) == 0 {
					s.dequeue(ge.core, ge)
				}
			}
		}
	}
	for c := range s.cores {
		if s.cores[c].cur == nil {
			s.reschedule(c)
		}
	}
}

// Block transitions the running or runnable task t to blocked.
func (s *Scheduler) Block(t *Task) {
	switch t.state {
	case StateBlocked:
		panic(fmt.Sprintf("sched: blocking blocked task %s", t.Name))
	case StateDead:
		panic(fmt.Sprintf("sched: blocking dead task %s", t.Name))
	}
	delete(s.wakePending, t)
	if s.unpark(t) {
		// A parked task sits in no runqueue and no entity queue; blocking it
		// is pure bookkeeping.
		t.state = StateBlocked
		return
	}
	if t.ge != nil {
		s.groupTaskBlock(t)
		return
	}
	c := s.cores[t.Core]
	if c.curTask == t {
		s.bill(t.Core)
		s.stopCurrent(t.Core)
		t.state = StateBlocked
		s.reschedule(t.Core)
		return
	}
	s.dequeue(t.Core, t)
	t.state = StateBlocked
}

// Exit removes t permanently.
func (s *Scheduler) Exit(t *Task) {
	if t.state == StateDead {
		return
	}
	if t.state == StateBlocked {
		t.state = StateDead
		return
	}
	s.Block(t)
	t.state = StateDead
}

// stopCurrent takes the running task (if any) off core's CPU without
// requeueing it. Callers decide where it goes next. The group entity (if
// resident) stays current.
func (s *Scheduler) stopCurrent(core int) {
	c := s.cores[core]
	if c.curTask == nil {
		return
	}
	t := c.curTask
	c.curTask = nil
	s.bus.Span(obs.CatSched, "run", t.AppID, int64(core), s.rail, t.Name, t.started)
	if t.state == StateRunning {
		t.state = StateRunnable
	}
	if ge, ok := c.cur.(*groupEntity); ok {
		if ge.running == t {
			ge.running = nil
		}
	} else {
		c.cur = nil
	}
	if s.cbs.StopTask != nil {
		s.cbs.StopTask(core, t)
	}
}

// runTask puts t on core's CPU.
func (s *Scheduler) runTask(core int, t *Task) {
	c := s.cores[core]
	if c.curTask != nil {
		panic(fmt.Sprintf("sched: core %d already running %s", core, c.curTask.Name))
	}
	// Close the core's billing period before the switch: otherwise the
	// incoming task would be charged for the idle (or balloon) gap since
	// the previous billing point.
	s.bill(core)
	t.state = StateRunning
	t.started = s.eng.Now()
	c.curTask = t
	s.ctxSwitches++
	s.bus.Instant(obs.CatSched, "switch", t.AppID, int64(core), s.rail, t.Name)
	s.bus.Count("sched.ctx_switches", 0, s.rail, 1)
	if at, ok := s.wakePending[t]; ok {
		lat := s.eng.Now().Sub(at)
		s.wakeLatTotal += lat
		s.wakeLatCount++
		delete(s.wakePending, t)
		s.bus.Observe("sched.wake_latency", t.AppID, "", lat)
	}
	if s.cbs.RunTask != nil {
		s.cbs.RunTask(core, t)
	}
}

// goIdle marks the core idle (cur may remain a resident group entity,
// representing forced idle inside a balloon).
func (s *Scheduler) goIdle(core int) {
	if s.cbs.CoreIdle != nil {
		s.cbs.CoreIdle(core)
	}
}

// reschedule picks what to run next on core after the CPU became free.
func (s *Scheduler) reschedule(core int) {
	c := s.cores[core]
	if ge, ok := c.cur.(*groupEntity); ok && ge.grp.resident {
		// Inside a balloon: pick within the group or force idle.
		s.groupPickLocal(ge)
		return
	}
	if c.cur != nil {
		return // still running something
	}
	next := s.pickMin(core)
	if next == nil {
		s.goIdle(core)
		return
	}
	s.startEntity(core, next)
}

// startEntity dispatches a runqueue entity onto the CPU.
func (s *Scheduler) startEntity(core int, e rqe) {
	c := s.cores[core]
	s.dequeue(core, e)
	switch v := e.(type) {
	case *Task:
		c.cur = v
		s.runTask(core, v)
	case *groupEntity:
		s.beginCosched(v.grp, core)
	default:
		panic("sched: unknown entity type")
	}
}

// maybePreempt re-evaluates core after a wakeup: an idle core always picks
// up work; a busy core is preempted when the waiting minimum leads by more
// than the granularity.
func (s *Scheduler) maybePreempt(core int) {
	c := s.cores[core]
	if ge, ok := c.cur.(*groupEntity); ok && ge.grp.resident {
		return // balloons are never preempted mid-window by outsiders
	}
	if c.cur == nil {
		s.reschedule(core)
		return
	}
	best := s.pickMin(core)
	if best == nil {
		return
	}
	s.bill(core)
	if best.vrun()+granularity < c.cur.vrun() {
		prev := c.curTask
		s.stopCurrent(core)
		if prev != nil {
			s.enqueue(core, prev)
		}
		s.startEntity(core, best)
	}
}

// tick is the periodic scheduler interrupt, aligned across cores.
func (s *Scheduler) tick(now sim.Time) {
	for core := range s.cores {
		s.bill(core)
	}
	// Group bookkeeping first: loans accrue and coscheduling windows close
	// on ticks.
	s.groupTick()
	for core := range s.cores {
		c := s.cores[core]
		if ge, ok := c.cur.(*groupEntity); ok && ge.grp.resident {
			s.groupLocalTick(ge)
			continue
		}
		if c.cur == nil {
			s.reschedule(core)
			continue
		}
		best := s.pickMin(core)
		if best != nil && best.vrun()+granularity < c.cur.vrun() {
			prev := c.curTask
			s.stopCurrent(core)
			if prev != nil {
				s.enqueue(core, prev)
			}
			s.startEntity(core, best)
		}
	}
	s.eng.After(tickPeriod, s.tick)
}
