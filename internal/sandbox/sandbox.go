// Package sandbox is the runtime sandbox manager: it turns workloads into
// supervised *sessions*, each admitted against a declared power budget and
// driven through the lifecycle Admit → Run → Throttle → Kill → Restart →
// Retire. Enforcement is graduated and entirely sim-deterministic:
//
//   - Admission control rejects a session whose declared budget exceeds
//     the remaining headroom of the device's power capacity.
//   - A budget monitor, fed by the internal/account blame shares of the
//     metered rails, throttles an app that stays over budget (duty-cycling
//     its CPU via the scheduler's throttle gates) and kills it after K
//     further violation windows.
//   - A supervisor restarts crashed or killed sessions with capped
//     exponential backoff; a circuit breaker quarantines a session that
//     fails N times within a window. Restarted incarnations are seeded
//     with the preserve_data counters of their predecessor, so they resume
//     rather than replay.
//
// Everything the manager does rides the simulation engine: one seed, one
// schedule of admissions, violations, kills, and restarts.
package sandbox

import (
	"fmt"
	"sort"

	"psbox/internal/account"
	"psbox/internal/core"
	"psbox/internal/hw/power"
	"psbox/internal/kernel"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// Config tunes the manager's enforcement ladder. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// CapacityW is the device's admittable power: the sum of live
	// sessions' declared budgets never exceeds it.
	CapacityW power.Watts

	// Window is the budget monitor period: blame shares are evaluated
	// (and throttle duty cycles paced) once per window.
	Window sim.Duration

	// ThrottleAfter is how many consecutive over-budget windows a running
	// session survives before it is throttled.
	ThrottleAfter int

	// KillAfter is how many consecutive violation windows a *throttled*
	// session survives before it is killed. While throttled the session
	// is held against its duty-scaled budget, so a genuine hog keeps
	// violating and climbs the ladder; a reformed app recovers.
	KillAfter int

	// ThrottleDuty is the fraction of each window a throttled session's
	// CPU gate stays open (0 < duty < 1).
	ThrottleDuty float64

	// BackoffBase and BackoffCap bound the supervisor's restart delay:
	// base·2^(failures-1), capped.
	BackoffBase sim.Duration
	BackoffCap  sim.Duration

	// BreakerN failures within BreakerWindow trip the circuit breaker:
	// the session is quarantined instead of restarted, and its budget
	// reservation is released.
	BreakerN      int
	BreakerWindow sim.Duration
}

// DefaultConfig returns the standard enforcement tuning.
func DefaultConfig(capacity power.Watts) Config {
	return Config{
		CapacityW:     capacity,
		Window:        25 * sim.Millisecond,
		ThrottleAfter: 2,
		KillAfter:     3,
		ThrottleDuty:  0.25,
		BackoffBase:   10 * sim.Millisecond,
		BackoffCap:    160 * sim.Millisecond,
		BreakerN:      3,
		BreakerWindow: 500 * sim.Millisecond,
	}
}

// State is a session's lifecycle state.
type State uint8

// The session lifecycle.
const (
	// StateRunning: admitted and executing under budget.
	StateRunning State = iota
	// StateThrottled: over budget; CPU duty-cycled by the monitor.
	StateThrottled
	// StateKilled: terminated by enforcement or a crash; a restart is
	// pending (unless the breaker trips first).
	StateKilled
	// StateQuarantined: the circuit breaker gave up on the session; it
	// holds no budget and will not be restarted.
	StateQuarantined
	// StateRetired: exited on its own; terminal.
	StateRetired
)

func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateThrottled:
		return "throttled"
	case StateKilled:
		return "killed"
	case StateQuarantined:
		return "quarantined"
	case StateRetired:
		return "retired"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Spec declares a session: its identity, budget, sandbox scopes, and how
// to (re)start its program.
type Spec struct {
	// Name identifies the session to the supervisor and the fault layer.
	// Must be unique among non-terminal sessions.
	Name string

	// BudgetW is the declared power budget, reserved at admission and
	// enforced per monitor window.
	BudgetW power.Watts

	// Scopes are the sandbox's hardware scopes; empty defaults to the CPU.
	Scopes []core.HW

	// MaxBacklog, when positive, is the leak bound: a session whose
	// summed accelerator backlog exceeds it is killed as a leaker.
	MaxBacklog int

	// PreserveData carries the app's throughput counters across restarts,
	// heka-style: the next incarnation resumes from them.
	PreserveData bool

	// Start spawns the incarnation's tasks. Called once per (re)start
	// with a freshly registered app.
	Start func(app *kernel.App)
}

// AdmissionError is the typed rejection of Launch.
type AdmissionError struct {
	Name     string
	Budget   power.Watts
	Headroom power.Watts
	Reason   string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("sandbox: session %q rejected: %s (budget %.2f W, headroom %.2f W)",
		e.Name, e.Reason, e.Budget, e.Headroom)
}

// Session is one supervised workload across all its incarnations.
type Session struct {
	spec  Spec
	state State
	app   *kernel.App // current incarnation; nil only before first start
	box   *core.Box   // current incarnation's sandbox

	violations int // consecutive violation windows

	preserved map[string]float64 // preserve_data carried across restarts
	failures  []sim.Time         // recent kill instants, pruned to BreakerWindow

	restartArm sim.Handle // pending supervisor restart
	gateArm    sim.Handle // pending duty-cycle gate close
	spanStart  sim.Time   // current lifecycle span start

	// Per-session tallies.
	throttles uint64
	kills     uint64
	restarts  uint64

	// peakJ is the last unthrottled violating window's energy — the rate
	// the hog would sustain unthrottled, against which reclaimed energy
	// is measured while the throttle holds it down.
	peakJ power.Joules
}

// Name returns the session's declared name.
func (s *Session) Name() string { return s.spec.Name }

// State returns the lifecycle state.
func (s *Session) State() State { return s.state }

// App returns the current incarnation's app (nil before first start).
func (s *Session) App() *kernel.App { return s.app }

// Box returns the current incarnation's sandbox.
func (s *Session) Box() *core.Box { return s.box }

// Restarts reports how many times the supervisor restarted the session.
func (s *Session) Restarts() uint64 { return s.restarts }

// Kills reports how many times enforcement or crashes killed the session.
func (s *Session) Kills() uint64 { return s.kills }

// Throttles reports how many times the session entered throttling.
func (s *Session) Throttles() uint64 { return s.throttles }

// Preserved returns the preserve_data counters carried for the next
// incarnation (nil when none).
func (s *Session) Preserved() map[string]float64 { return s.preserved }

// Stats is the manager's aggregate enforcement tally — the flood report's
// numbers.
type Stats struct {
	Admitted    uint64
	Rejected    uint64
	Throttles   uint64
	Kills       uint64
	Restarts    uint64
	Quarantined uint64
	Retired     uint64
	ReclaimedJ  power.Joules
}

// Manager supervises all sessions of one system.
type Manager struct {
	eng   *sim.Engine
	k     *kernel.Kernel
	boxes *core.Manager
	//psbox:allow-snapshotstate wiring: blame accountants installed at construction
	accts []*account.Accountant
	bus   *obs.Bus

	cfg      Config
	started  bool // first Launch happened; cfg is frozen
	sessions []*Session
	reserved power.Watts // sum of live sessions' budgets

	lastWindow sim.Time
	monitorArm sim.Handle

	stats Stats
}

// NewManager builds a sandbox manager over a system's kernel, psbox
// service, and blame accountants (one per metered rail, in a fixed order).
func NewManager(eng *sim.Engine, k *kernel.Kernel, boxes *core.Manager, accts []*account.Accountant, bus *obs.Bus, cfg Config) *Manager {
	validate(cfg)
	return &Manager{eng: eng, k: k, boxes: boxes, accts: accts, bus: bus, cfg: cfg}
}

func validate(cfg Config) {
	if cfg.CapacityW <= 0 {
		panic("sandbox: need a positive power capacity")
	}
	if cfg.Window <= 0 {
		panic("sandbox: need a positive monitor window")
	}
	if cfg.ThrottleAfter <= 0 || cfg.KillAfter <= 0 {
		panic("sandbox: need positive ladder thresholds")
	}
	if cfg.ThrottleDuty <= 0 || cfg.ThrottleDuty >= 1 {
		panic("sandbox: throttle duty must be in (0, 1)")
	}
	if cfg.BackoffBase <= 0 || cfg.BackoffCap < cfg.BackoffBase {
		panic("sandbox: need 0 < backoff base ≤ cap")
	}
	if cfg.BreakerN <= 0 || cfg.BreakerWindow <= 0 {
		panic("sandbox: need a positive breaker threshold and window")
	}
}

// SetConfig replaces the enforcement tuning. Panics after the first
// Launch: the ladder must not move under live sessions.
func (m *Manager) SetConfig(cfg Config) {
	if m.started {
		panic("sandbox: SetConfig after Launch")
	}
	validate(cfg)
	m.cfg = cfg
}

// Config returns the active enforcement tuning.
func (m *Manager) Config() Config { return m.cfg }

// Stats returns the aggregate enforcement tally.
func (m *Manager) Stats() Stats { return m.stats }

// Sessions lists all sessions in admission order.
func (m *Manager) Sessions() []*Session { return m.sessions }

// Headroom reports the unreserved admittable power.
func (m *Manager) Headroom() power.Watts { return m.cfg.CapacityW - m.reserved }

// Launch admits and starts a session. The first Launch arms the budget
// monitor. Rejections are typed *AdmissionError.
func (m *Manager) Launch(spec Spec) (*Session, error) {
	if spec.Name == "" {
		panic("sandbox: session needs a name")
	}
	if spec.Start == nil {
		panic("sandbox: session needs a start function")
	}
	if spec.BudgetW <= 0 {
		panic("sandbox: session needs a positive budget")
	}
	if len(spec.Scopes) == 0 {
		spec.Scopes = []core.HW{core.HWCPU}
	}
	for _, s := range m.sessions {
		if s.spec.Name == spec.Name && !terminal(s.state) {
			m.stats.Rejected++
			m.bus.Instant(obs.CatSession, "reject", 0, int64(m.stats.Rejected), "", spec.Name)
			return nil, &AdmissionError{Name: spec.Name, Budget: spec.BudgetW,
				Headroom: m.Headroom(), Reason: "name already live"}
		}
	}
	if spec.BudgetW > m.Headroom() {
		m.stats.Rejected++
		m.bus.Instant(obs.CatSession, "reject", 0, int64(m.stats.Rejected), "", spec.Name)
		m.bus.Count("session.rejected", 0, "", 1)
		return nil, &AdmissionError{Name: spec.Name, Budget: spec.BudgetW,
			Headroom: m.Headroom(), Reason: "budget exceeds headroom"}
	}
	if !m.started {
		m.started = true
		m.lastWindow = m.eng.Now()
		m.monitorArm = m.eng.After(m.cfg.Window, m.tick)
	}
	s := &Session{spec: spec, state: StateRunning, spanStart: m.eng.Now()}
	m.sessions = append(m.sessions, s)
	m.reserved += spec.BudgetW
	m.stats.Admitted++
	m.start(s)
	m.bus.Instant(obs.CatSession, "admit", s.app.ID, int64(m.stats.Admitted), "", spec.Name)
	m.bus.Count("session.admitted", 0, "", 1)
	return s, nil
}

func terminal(st State) bool { return st == StateQuarantined || st == StateRetired }

// start brings up a (new) incarnation of s: a fresh app seeded with the
// preserved counters, a fresh sandbox, and the spec's program.
func (m *Manager) start(s *Session) {
	s.app = m.k.NewApp(s.spec.Name)
	if len(s.preserved) > 0 {
		// Sorted for determinism: counter restore order must not depend on
		// map iteration.
		keys := make([]string, 0, len(s.preserved))
		for k := range s.preserved {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s.app.SetCounter(k, s.preserved[k])
		}
	}
	s.box = m.boxes.MustCreate(s.app, s.spec.Scopes...)
	s.box.Enter()
	s.spec.Start(s.app)
	s.state = StateRunning
	s.violations = 0
	s.spanStart = m.eng.Now()
}

// tick is the budget monitor: evaluate the elapsed window's blame shares
// against each live session's (duty-scaled) budget, advance the
// enforcement ladder, pace throttle duty cycles, and re-arm.
func (m *Manager) tick(now sim.Time) {
	from := m.lastWindow
	m.lastWindow = now
	winSec := float64(now.Sub(from)) / 1e9
	shares := make([]map[int]power.Joules, len(m.accts))
	for i, a := range m.accts {
		shares[i] = a.Shares(from, now)
	}
	for _, s := range m.sessions {
		switch s.state {
		case StateRunning, StateThrottled:
		default:
			continue
		}
		if !s.app.Alive() {
			//psbox:allow-unbilledenergy teardown is not a metering event; the next tick's Shares call bills the closed window
			m.retire(s)
			continue
		}
		if s.spec.MaxBacklog > 0 && m.backlog(s.app.ID) > s.spec.MaxBacklog {
			//psbox:allow-unbilledenergy teardown is not a metering event; the next tick's Shares call bills the closed window
			m.kill(s, "leak")
			continue
		}
		var e power.Joules
		for _, sh := range shares {
			e += sh[s.app.ID]
		}
		budgetJ := s.spec.BudgetW * winSec
		limitJ := budgetJ
		if s.state == StateThrottled {
			// Held against the duty-scaled budget: a throttled hog still
			// saturates its open slice and keeps violating; an app that
			// reformed drops below and recovers.
			limitJ *= m.cfg.ThrottleDuty
			if reclaimed := s.peakJ - e; reclaimed > 0 {
				m.stats.ReclaimedJ += reclaimed
			}
		}
		if e > limitJ {
			s.violations++
			m.bus.Instant(obs.CatSession, "violation", s.app.ID, int64(s.violations), "", s.spec.Name)
			m.bus.Count("session.violations", s.app.ID, "", 1)
		} else {
			s.violations = 0
			if s.state == StateThrottled {
				m.unthrottle(s)
			}
		}
		if s.state != StateThrottled && s.violations >= m.cfg.ThrottleAfter {
			s.peakJ = e
			m.throttle(s)
		} else if s.state == StateThrottled && s.violations >= m.cfg.KillAfter {
			//psbox:allow-unbilledenergy teardown is not a metering event; the next tick's Shares call bills the closed window
			m.kill(s, "budget")
			continue
		}
		if s.state == StateThrottled {
			m.pulseGate(s)
		}
	}
	m.monitorArm = m.eng.After(m.cfg.Window, m.tick)
}

// backlog sums the app's backlog across every attached accelerator.
func (m *Manager) backlog(appID int) int {
	total := 0
	for _, name := range m.k.AccelNames() {
		total += m.k.Accel(name).Backlog(appID)
	}
	return total
}

// throttle enters the duty-cycled state: the session's CPU gate is closed
// for 1-duty of every window from here on.
func (m *Manager) throttle(s *Session) {
	m.bus.Span(obs.CatSession, "run", s.app.ID, 0, "", s.spec.Name, s.spanStart)
	s.state = StateThrottled
	s.violations = 0
	s.spanStart = m.eng.Now()
	s.throttles++
	m.stats.Throttles++
	m.bus.Instant(obs.CatSession, "throttle", s.app.ID, int64(s.throttles), "", s.spec.Name)
	m.bus.Count("session.throttles", s.app.ID, "", 1)
	m.pulseGate(s)
}

// pulseGate opens the session's gate for the duty fraction of the window
// starting now, closing it for the remainder.
func (m *Manager) pulseGate(s *Session) {
	sch := m.k.Scheduler()
	sch.SetAppGate(s.app.ID, true)
	m.eng.Cancel(s.gateArm)
	openFor := sim.Duration(float64(m.cfg.Window) * m.cfg.ThrottleDuty)
	appID := s.app.ID
	s.gateArm = m.eng.After(openFor, func(sim.Time) { sch.SetAppGate(appID, false) })
}

// unthrottle returns a reformed session to full speed.
func (m *Manager) unthrottle(s *Session) {
	m.bus.Span(obs.CatSession, "throttle", s.app.ID, 0, "", s.spec.Name, s.spanStart)
	s.state = StateRunning
	s.spanStart = m.eng.Now()
	m.eng.Cancel(s.gateArm)
	m.k.Scheduler().SetAppGate(s.app.ID, true)
}

// kill terminates the session's current incarnation and hands it to the
// supervisor: restart after backoff, or quarantine when the circuit
// breaker trips.
func (m *Manager) kill(s *Session, reason string) {
	now := m.eng.Now()
	span := "run"
	if s.state == StateThrottled {
		span = "throttle"
	}
	m.bus.Span(obs.CatSession, span, s.app.ID, 0, "", s.spec.Name, s.spanStart)
	m.eng.Cancel(s.gateArm)
	if s.spec.PreserveData {
		s.preserved = s.app.Counters()
	}
	for _, t := range s.app.Tasks() {
		m.k.Kill(t)
	}
	m.k.Scheduler().SetAppGate(s.app.ID, true)
	s.box.Leave()
	s.state = StateKilled
	s.spanStart = now
	s.kills++
	m.stats.Kills++
	m.bus.Instant(obs.CatSession, "kill", s.app.ID, int64(s.kills), "", reason)
	m.bus.Count("session.kills", s.app.ID, "", 1)

	// Circuit breaker: prune failures outside the window, record this one.
	kept := s.failures[:0]
	for _, at := range s.failures {
		if now.Sub(at) < m.cfg.BreakerWindow {
			kept = append(kept, at)
		}
	}
	s.failures = append(kept, now)
	if len(s.failures) >= m.cfg.BreakerN {
		m.quarantine(s)
		return
	}
	backoff := sim.Backoff(len(s.failures), m.cfg.BackoffBase, m.cfg.BackoffCap)
	s.restartArm = m.eng.After(backoff, func(sim.Time) { m.restart(s) })
}

// restart brings up the next incarnation.
func (m *Manager) restart(s *Session) {
	m.bus.Span(obs.CatSession, "killed", s.app.ID, 0, "", s.spec.Name, s.spanStart)
	m.start(s)
	s.restarts++
	m.stats.Restarts++
	m.bus.Instant(obs.CatSession, "restart", s.app.ID, int64(s.restarts), "", s.spec.Name)
	m.bus.Count("session.restarts", s.app.ID, "", 1)
}

// quarantine is the breaker's terminal verdict: no more restarts, budget
// released.
func (m *Manager) quarantine(s *Session) {
	s.state = StateQuarantined
	s.spanStart = m.eng.Now()
	m.reserved -= s.spec.BudgetW
	m.stats.Quarantined++
	m.bus.Instant(obs.CatSession, "quarantine", s.app.ID, int64(len(s.failures)), "", s.spec.Name)
	m.bus.Count("session.quarantines", s.app.ID, "", 1)
}

// retire finishes a session whose app exited on its own.
func (m *Manager) retire(s *Session) {
	span := "run"
	if s.state == StateThrottled {
		span = "throttle"
	}
	m.bus.Span(obs.CatSession, span, s.app.ID, 0, "", s.spec.Name, s.spanStart)
	m.eng.Cancel(s.gateArm)
	m.k.Scheduler().SetAppGate(s.app.ID, true)
	s.box.Leave()
	s.state = StateRetired
	s.spanStart = m.eng.Now()
	m.reserved -= s.spec.BudgetW
	m.stats.Retired++
	m.bus.Instant(obs.CatSession, "retire", s.app.ID, int64(m.stats.Retired), "", s.spec.Name)
	m.bus.Count("session.retired", s.app.ID, "", 1)
}

// InjectCrash kills the named live session (the faults layer's sandbox
// crash). Reports whether a live session carried the name.
func (m *Manager) InjectCrash(name string) bool {
	for _, s := range m.sessions {
		if s.spec.Name != name {
			continue
		}
		switch s.state {
		case StateRunning, StateThrottled:
			m.kill(s, "crash")
			return true
		}
	}
	return false
}
