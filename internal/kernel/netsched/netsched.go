// Package netsched implements the kernel's wireless packet scheduler of
// §4.2: byte-fair queueing over per-socket buffers, augmented with psbox
// temporal balloons (packet draining phases, per-sandbox virtualized NIC
// power state, and credit discounts for the transmission opportunities the
// balloon denied to other apps).
package netsched

import (
	"fmt"

	"psbox/internal/hw/nic"
	"psbox/internal/hw/power"
	"psbox/internal/kernel/fair"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// Phase is the balloon phase of the packet scheduler.
type Phase int

const (
	// PhaseNone: ordinary byte-fair multiplexing.
	PhaseNone Phase = iota
	// PhaseDrain: waiting for the in-flight frame before opening the
	// balloon.
	PhaseDrain
	// PhaseServe: transmitting only the sandboxed app's packets.
	PhaseServe
)

func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return "none"
	case PhaseDrain:
		return "drain"
	case PhaseServe:
		return "serve"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// The packet scheduler's tuning mirrors the BeagleBone/WiLink8 behaviour
// of §6.2.
const (
	// drainSettle models the quiescing delay at balloon opening observed
	// on the paper's platform (§6.2): WiLink firmware batches completion
	// notifications and the wimpy CPU adds interrupt latency, so the
	// driver only trusts the medium to be clear this long after the last
	// completion. It is the dominant WiFi latency cost of psbox.
	drainSettle = 12 * sim.Millisecond

	// quantum is the byte credit a balloon may overdraw before the
	// scheduler hands the NIC back. Without it, byte-fair alternation
	// would split every balloon after a frame or two, re-paying the drain
	// settle each time.
	quantum = 8192

	// graceDelay bounds how long a credit-ineligible sandbox waits for
	// momentarily idle competitors before its balloon opens anyway (the
	// starvation backstop of the balloon admission gate).
	graceDelay = 5 * sim.Millisecond

	// retryBackoff is the retransmission delay after a frame fails on a
	// link flap; it doubles per retry of the same frame, capped at
	// retryBackoffCap. The failed airtime is still billed to the owner.
	retryBackoff    = 5 * sim.Millisecond
	retryBackoffCap = 80 * sim.Millisecond
)

// Socket is one app's transmission endpoint with its own kernel buffer
// (the paper holds packets back "in per-socket buffers instead of a global
// queue").
type Socket struct {
	ID    int
	Owner int

	queue       []*nic.Packet
	queuedBytes int
}

// QueuedBytes reports bytes buffered in the socket.
func (s *Socket) QueuedBytes() int { return s.queuedBytes }

type appState struct {
	fair.App           // credit: total byte cost charged
	state    nic.State // virtualized NIC power state while boxed

	// The virtual NIC (§5: "drive an independent state machine for each
	// psbox"): a per-sandbox power-state machine whose rail the sandbox's
	// virtual power meter reads. It sees only this app's frames — active
	// power during their airtime, this app's own tail afterwards, PSM
	// otherwise — so concurrent apps cannot contribute anything beyond
	// idle power, and no physical tail-holding is needed.
	vrail    *power.Rail
	vtailArm sim.Handle

	sentBytes   uint64
	sentPackets uint64
	inflight    int // bytes on the air
	retrying    int // bytes lost to a link flap, waiting out retry backoff

	latencySum sim.Duration
	latencyN   uint64

	// balloonBacklog tracks bytes this (non-boxed) app had buffered while
	// a balloon was open — the lost opportunities charged to the box.
	balloonBacklog int
}

// Driver is the packet scheduler over one NIC.
type Driver struct {
	eng *sim.Engine
	n   *nic.NIC
	//psbox:allow-snapshotstate wiring: callback closures installed at construction
	cbs   fair.Callbacks
	socks []*Socket
	led   fair.Ledger[*appState]

	settleArm sim.Handle
	graceArm  sim.Handle

	phase          Phase
	activeBox      *appState
	closing        bool // balloon teardown deferred to frame completion
	othersState    nic.State
	balloonAt      sim.Time
	balloonBlocked bool // another app had demand during the balloon

	nextSockID int
	nextPktID  uint64

	// Link-flap recovery: the socket whose frame is on the air (for
	// requeueing on failure) and the retransmission counter.
	curSock     *Socket
	linkRetries uint64

	// Observability (nil-safe; the bus snapshots itself).
	bus *obs.Bus
}

// SetBus routes the packet scheduler's trace events and metrics to a bus.
// Transmission spans carry the NIC rail name so they join with meter
// samples.
func (d *Driver) SetBus(b *obs.Bus) { d.bus = b }

// netPhaseKinds pre-renders the phase-instant kinds so emission never
// formats strings.
var netPhaseKinds = [...]string{"phase-none", "phase-drain", "phase-serve"}

// setPhase is the single phase-transition choke point: every balloon
// phase change emits one instant carrying the new phase.
func (d *Driver) setPhase(p Phase) {
	if d.phase == p {
		return
	}
	d.phase = p
	owner := 0
	if d.activeBox != nil {
		owner = d.activeBox.ID
	}
	d.bus.Instant(obs.CatNet, netPhaseKinds[p], owner, int64(p), d.n.Config().Name, d.n.Config().Name)
}

// New wires a driver to the NIC.
func New(eng *sim.Engine, n *nic.NIC, cbs fair.Callbacks) *Driver {
	d := &Driver{eng: eng, n: n, cbs: cbs}
	d.led = fair.NewLedger(
		func(a *appState) bool { return d.backlog(a) > 0 },
		func(a *appState) bool { return d.headSocket(a.ID) != nil })
	n.OnComplete(d.onComplete)
	n.OnIdle(func() { d.pump() }) // tail expiry advances balloon state
	n.OnTxFail(d.onTxFail)
	n.OnLinkUp(func() { d.pump() }) // link recovery resumes dispatching
	return d
}

// NIC exposes the underlying hardware model.
func (d *Driver) NIC() *nic.NIC { return d.n }

// SetCallbacks replaces the driver's callbacks; the kernel uses this to
// interpose its own routing when the driver is attached.
func (d *Driver) SetCallbacks(cbs fair.Callbacks) { d.cbs = cbs }

// Phase reports the balloon phase.
func (d *Driver) Phase() Phase { return d.phase }

func (d *Driver) app(id int) *appState {
	a, ok := d.led.Get(id)
	if !ok {
		a = &appState{state: nic.State{Mode: nic.ModePSM}}
		d.led.Join(id, a)
	}
	return a
}

// NewSocket opens a transmission socket for an app.
func (d *Driver) NewSocket(owner int) *Socket {
	d.nextSockID++
	s := &Socket{ID: d.nextSockID, Owner: owner}
	d.socks = append(d.socks, s)
	d.app(owner) // materialize
	return s
}

// Send deposits a packet into the socket's kernel buffer.
func (d *Driver) Send(s *Socket, bytes int) {
	if bytes <= 0 {
		panic("netsched: empty packet")
	}
	a := d.app(s.Owner)
	if d.backlog(a) == 0 {
		d.led.Wake(a) // returning from idle
	}
	d.nextPktID++
	p := &nic.Packet{ID: d.nextPktID, Owner: s.Owner, Bytes: bytes, Enqueued: d.eng.Now()}
	s.queue = append(s.queue, p)
	s.queuedBytes += bytes
	if d.activeBox != nil && s.Owner != d.activeBox.ID {
		d.balloonBlocked = true
	}
	d.pump()
}

// Backlog reports an app's unsent bytes (buffered, on the air, or waiting
// out a link-flap retry backoff).
func (d *Driver) Backlog(appID int) int {
	if a, ok := d.led.Get(appID); ok {
		return d.backlog(a)
	}
	return 0
}

func (d *Driver) backlog(a *appState) int {
	total := a.inflight + a.retrying
	for _, s := range d.socks {
		if s.Owner == a.ID {
			total += s.queuedBytes
		}
	}
	return total
}

// SentBytes reports an app's completed transmission volume.
func (d *Driver) SentBytes(appID int) uint64 {
	if a, ok := d.led.Get(appID); ok {
		return a.sentBytes
	}
	return 0
}

// SentPackets reports an app's completed frame count.
func (d *Driver) SentPackets(appID int) uint64 {
	if a, ok := d.led.Get(appID); ok {
		return a.sentPackets
	}
	return 0
}

// MeanQueueingLatency reports an app's mean enqueue→dispatch delay, the
// §6.2 WiFi latency metric. Zero appID aggregates all apps.
func (d *Driver) MeanQueueingLatency(appID int) sim.Duration {
	var sum sim.Duration
	var n uint64
	for _, a := range d.led.Apps() {
		if appID != 0 && a.ID != appID {
			continue
		}
		sum += a.latencySum
		n += a.latencyN
	}
	if n == 0 {
		return 0
	}
	return sim.Duration(int64(sum) / int64(n))
}

// VRuntime exposes an app's byte credit for tests.
func (d *Driver) VRuntime(appID int) float64 {
	if a, ok := d.led.Get(appID); ok {
		return a.Credit
	}
	return 0
}

// SetTxLevel selects an app's transmission power level. For an unboxed app
// this programs the shared hardware directly — the last writer wins, which
// is exactly the lingering-state entanglement of §2.3: another app's
// frames then go out at this level too. For a boxed app the level becomes
// part of its virtualized power state, applied only inside its balloons.
func (d *Driver) SetTxLevel(appID, level int) {
	a := d.app(appID)
	a.state.TxLevel = level
	if !a.Boxed || (d.activeBox == a && d.phase == PhaseServe) {
		d.n.SetTxLevel(level)
	}
	if !a.Boxed {
		// The shared state now carries this level; remember it for the
		// next balloon restore.
		d.othersState.TxLevel = level
	}
}

// VirtualRail returns (creating on demand) the app's virtual-NIC power
// rail; the psbox layer reads it as the app's WiFi power observation.
func (d *Driver) VirtualRail(appID int) *power.Rail {
	a := d.app(appID)
	if a.vrail == nil {
		a.vrail = power.NewRail(d.eng, fmt.Sprintf("wifi-vnic-%d", appID), d.n.Config().PSMW)
	}
	return a.vrail
}

// vnicActive drives the app's virtual NIC into the active state for one of
// its frames.
func (d *Driver) vnicActive(a *appState) {
	if a.vrail == nil {
		return
	}
	d.eng.Cancel(a.vtailArm)
	a.vrail.Set(d.n.Config().ActiveW[a.state.TxLevel])
}

// vnicTail moves the app's virtual NIC into its own tail state, decaying
// to PSM after the power-save timeout.
func (d *Driver) vnicTail(a *appState) {
	if a.vrail == nil {
		return
	}
	cfg := d.n.Config()
	a.vrail.Set(cfg.TailW)
	a.vtailArm = d.eng.After(cfg.TailTimeout, func(sim.Time) { a.vrail.Set(cfg.PSMW) })
}

// BoxEnter encloses an app's NIC usage in temporal balloons and gives it a
// virtual NIC power state starting from PSM.
func (d *Driver) BoxEnter(appID int) {
	a := d.app(appID)
	if a.Boxed {
		return
	}
	a.Boxed = true
	a.state = nic.State{Mode: nic.ModePSM, TxLevel: a.state.TxLevel}
	d.VirtualRail(appID) // materialize the virtual NIC
	d.pump()
}

// BoxLeave dissolves the sandbox on the NIC. If the box's balloon is open
// with a frame on the air, teardown completes at that frame's completion
// (the power-state swap needs a quiet medium).
func (d *Driver) BoxLeave(appID int) {
	a, ok := d.led.Get(appID)
	if !ok || !a.Boxed {
		return
	}
	a.Boxed = false
	if d.activeBox != a {
		d.pump()
		return
	}
	switch d.phase {
	case PhaseDrain:
		// Balloon never opened; just cancel the reservation.
		d.eng.Cancel(d.settleArm)
		d.setPhase(PhaseNone)
		d.activeBox = nil
		d.pump()
	case PhaseServe:
		if d.n.Busy() {
			d.closing = true // finish at frame completion
			return
		}
		d.closeBalloon()
	}
}

func (d *Driver) onComplete(p *nic.Packet) {
	a := d.app(p.Owner)
	a.inflight -= p.Bytes
	a.sentBytes += uint64(p.Bytes)
	a.sentPackets++
	d.bus.Span(obs.CatNet, "tx", p.Owner, int64(p.Bytes), d.n.Config().Name, "", p.Dispatched)
	d.bus.Count("net.sent_bytes", p.Owner, d.n.Config().Name, int64(p.Bytes))
	if d.cbs.Usage != nil {
		d.cbs.Usage(p.Owner, p.Dispatched, p.Completed)
	}
	// Byte-fair billing: credit burned equals bytes sent.
	a.Credit += float64(p.Bytes)
	d.vnicTail(a)
	d.pump()
	if d.cbs.BacklogChange != nil {
		d.cbs.BacklogChange(p.Owner)
	}
}

// headSocket returns the socket whose head packet the app should send next
// (oldest head first).
func (d *Driver) headSocket(appID int) *Socket {
	var best *Socket
	for _, s := range d.socks {
		if s.Owner != appID || len(s.queue) == 0 {
			continue
		}
		if best == nil || s.queue[0].Enqueued < best.queue[0].Enqueued {
			best = s
		}
	}
	return best
}

func (d *Driver) transmit(a *appState, s *Socket) {
	p := s.queue[0]
	s.queue = s.queue[1:]
	s.queuedBytes -= p.Bytes
	a.inflight += p.Bytes
	d.curSock = s
	d.n.Transmit(p)
	d.vnicActive(a)
	a.latencySum += p.Dispatched.Sub(p.Enqueued)
	a.latencyN++
	d.bus.Instant(obs.CatNet, "tx-begin", p.Owner, int64(p.ID), d.n.Config().Name, "")
	d.bus.Observe("net.queueing_latency", p.Owner, d.n.Config().Name, p.Dispatched.Sub(p.Enqueued))
}

// LinkRetries reports how many transmissions failed on link flaps and were
// requeued for retransmission.
func (d *Driver) LinkRetries() uint64 { return d.linkRetries }

// onTxFail is the transmission-failure interrupt handler: the link dropped
// with the frame on the air. The burned airtime is billed to the owner in
// byte-credit (the radio spent the energy either way; under a balloon the
// sandbox's confinement charge keeps covering it), the frame returns to the
// head of its socket after a capped exponential backoff, and its own tail
// is reflected on the owner's virtual NIC just like a completed frame.
func (d *Driver) onTxFail(p *nic.Packet) {
	a := d.app(p.Owner)
	a.inflight -= p.Bytes
	a.retrying += p.Bytes
	a.Credit += float64(p.Bytes)
	d.vnicTail(a)
	s := d.curSock
	d.curSock = nil
	p.Retries++
	d.linkRetries++
	d.bus.Instant(obs.CatNet, "tx-retry", p.Owner, int64(p.ID), d.n.Config().Name, "")
	d.bus.Count("net.link_retries", p.Owner, d.n.Config().Name, 1)
	backoff := sim.Backoff(p.Retries, retryBackoff, retryBackoffCap)
	pp, ss := p, s
	d.eng.After(backoff, func(sim.Time) { d.requeue(pp, ss) })
	d.pump()
	if d.cbs.BacklogChange != nil {
		d.cbs.BacklogChange(p.Owner)
	}
}

// requeue returns a failed frame to the head of its socket once its retry
// backoff expires.
func (d *Driver) requeue(p *nic.Packet, s *Socket) {
	d.app(p.Owner).retrying -= p.Bytes
	s.queue = append([]*nic.Packet{p}, s.queue...)
	s.queuedBytes += p.Bytes
	if d.activeBox != nil && s.Owner != d.activeBox.ID {
		d.balloonBlocked = true
	}
	d.pump()
}

// settleLostOpportunity closes out the balloon's billing: the bytes other
// apps could have transmitted during the balloon — the sharing the balloon
// denied them — discount the sandboxed app's credit (§4.2). When any other
// app had packets buffered during the balloon, the denial equals the
// link's full capacity over the balloon span (their producers were blocked
// on backpressure, so their momentary queue depth under-counts demand).
func (d *Driver) settleLostOpportunity() {
	if d.activeBox == nil {
		return
	}
	blocked := d.balloonBlocked
	for _, s := range d.socks {
		if s.Owner != d.activeBox.ID && s.queuedBytes > 0 {
			blocked = true
		}
	}
	if !blocked {
		return
	}
	span := d.eng.Now().Sub(d.balloonAt).Seconds()
	d.activeBox.Credit += float64(span * d.n.Config().LinkBytesPerSec)
}

// pump advances the scheduling state machine.
func (d *Driver) pump() {
	d.led.Refresh()
	switch d.phase {
	case PhaseNone:
		d.pumpNone()
	case PhaseDrain:
		d.armSettle()
	case PhaseServe:
		d.pumpServe()
	}
}

// armSettle schedules the end of the drain phase: the medium must stay
// quiet for drainSettle before the balloon opens.
func (d *Driver) armSettle() {
	if d.n.Busy() || d.settleArm.Pending() {
		return
	}
	d.settleArm = d.eng.After(drainSettle, func(sim.Time) {
		if d.phase == PhaseDrain && !d.n.Busy() {
			d.beginServe()
		}
	})
}

func (d *Driver) pumpNone() {
	other := d.led.Pick(false)
	box := d.led.Pick(true)
	if box != nil && (other == nil || box.Credit <= other.Credit) {
		if other == nil && !d.led.Deserves(box) {
			// Competitors are between sends but ahead on credit: hold the
			// balloon back briefly instead of making their next frames eat
			// a drain settle.
			d.armGrace()
			return
		}
		// Fair policy picks the sandbox: reserve the balloon now. If a
		// frame is on the air, phase 1 (drain) holds everything back until
		// it lands.
		d.activeBox = box
		d.balloonAt = d.eng.Now()
		d.balloonBlocked = false
		d.setPhase(PhaseDrain)
		d.armSettle()
		return
	}
	if other == nil || d.n.Busy() || !d.n.LinkUp() {
		return
	}
	d.transmit(other, d.headSocket(other.ID))
}

// armGrace schedules the starvation backstop for a waiting sandbox.
func (d *Driver) armGrace() {
	if d.graceArm.Pending() {
		return
	}
	d.graceArm = d.eng.After(graceDelay, func(sim.Time) {
		if d.phase != PhaseNone {
			return
		}
		box := d.led.Pick(true)
		if box == nil || d.led.Pick(false) != nil {
			d.pump()
			return
		}
		d.activeBox = box
		d.balloonAt = d.eng.Now()
		d.balloonBlocked = false
		d.setPhase(PhaseDrain)
		d.armSettle()
	})
}

func (d *Driver) beginServe() {
	// Order matters: residency must be announced before the state restore,
	// because restoring can re-enter the pump (tail expiry callbacks) and
	// start transmitting immediately.
	d.setPhase(PhaseServe)
	d.othersState = d.n.State()
	if d.cbs.BoxResident != nil {
		d.cbs.BoxResident(d.activeBox.ID, true)
	}
	d.n.Restore(d.activeBox.state)
	d.pumpServe()
}

func (d *Driver) pumpServe() {
	a := d.activeBox
	if d.n.Busy() {
		return
	}
	if d.closing {
		d.closeBalloon()
		return
	}
	s := d.headSocket(a.ID)
	if s == nil {
		// The box went idle: hand the NIC back. Its tail energy is tracked
		// by its virtual NIC, so there is no need to hold the physical
		// device hostage through the tail; the driver simply reprograms
		// the power-save timer when it restores the shared state.
		d.closeBalloon()
		return
	}
	// Hand the NIC back once the box's credit exceeds the fair minimum by
	// a full service quantum (drain-psbox is implicit: one frame at a
	// time, and we only get here with the air clear).
	if min, ok := d.led.MinOther(a); ok && a.Credit > min+quantum {
		d.closeBalloon()
		return
	}
	if !d.n.LinkUp() {
		return // hold the balloon; retries resume when the link returns
	}
	d.transmit(a, s)
}

func (d *Driver) closeBalloon() {
	a := d.activeBox
	d.settleLostOpportunity()
	// Clear balloon state and end residency before the restore: restoring
	// the shared power state can re-enter the pump via NIC callbacks.
	d.setPhase(PhaseNone)
	d.activeBox = nil
	d.closing = false
	if d.cbs.BoxResident != nil {
		d.cbs.BoxResident(a.ID, false)
	}
	a.state = d.n.State()
	d.n.Restore(d.othersState)
	d.pumpNone()
}
