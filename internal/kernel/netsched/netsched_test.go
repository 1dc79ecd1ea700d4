package netsched

import (
	"bytes"
	"testing"

	"psbox/internal/hw/nic"
	"psbox/internal/kernel/fair"
	"psbox/internal/sim"
	"psbox/internal/snapshot"
)

func nicCfg() nic.Config {
	return nic.Config{
		Name:              "wifi",
		LinkBytesPerSec:   1e6, // 1 byte/µs
		PerPacketOverhead: 100 * sim.Microsecond,
		PSMW:              0.03,
		ActiveW:           []float64{0.8},
		TailW:             0.35,
		TailTimeout:       50 * sim.Millisecond,
	}
}

type fixture struct {
	eng      *sim.Engine
	n        *nic.NIC
	drv      *Driver
	resident map[int]bool
}

func newFixture(t *testing.T) *fixture {
	f := &fixture{eng: sim.NewEngine(), resident: map[int]bool{}}
	f.n = nic.MustNew(f.eng, nicCfg())
	f.drv = New(f.eng, f.n, fair.Callbacks{
		BoxResident: func(app int, r bool) { f.resident[app] = r },
	})
	return f
}

// feeder keeps a socket's buffer topped up, modelling a bulk transfer.
func (f *fixture) feeder(s *Socket, pkt int, depth int) {
	var top func(sim.Time)
	top = func(sim.Time) {
		for s.QueuedBytes() < depth*pkt {
			f.drv.Send(s, pkt)
		}
		f.eng.After(200*sim.Microsecond, top)
	}
	top(0)
}

func TestSinglePacketLifecycle(t *testing.T) {
	f := newFixture(t)
	s := f.drv.NewSocket(1)
	f.drv.Send(s, 900) // 1ms airtime
	if !f.n.Busy() {
		t.Fatal("packet should be on the air immediately")
	}
	f.eng.RunFor(2 * sim.Millisecond)
	if f.drv.SentBytes(1) != 900 || f.drv.SentPackets(1) != 1 {
		t.Fatalf("sent = %d bytes %d pkts", f.drv.SentBytes(1), f.drv.SentPackets(1))
	}
	if f.drv.Backlog(1) != 0 {
		t.Fatal("backlog should drain")
	}
}

func TestFIFOWithinApp(t *testing.T) {
	f := newFixture(t)
	s1 := f.drv.NewSocket(1)
	s2 := f.drv.NewSocket(1)
	f.drv.Send(s1, 900)
	f.drv.Send(s2, 400)
	f.drv.Send(s1, 400)
	f.eng.RunFor(10 * sim.Millisecond)
	if f.drv.SentPackets(1) != 3 {
		t.Fatalf("sent %d packets", f.drv.SentPackets(1))
	}
}

func TestByteFairSharing(t *testing.T) {
	f := newFixture(t)
	s1 := f.drv.NewSocket(1)
	s2 := f.drv.NewSocket(2)
	f.feeder(s1, 1400, 4)
	f.feeder(s2, 700, 4) // smaller packets, same byte entitlement
	f.eng.RunFor(2 * sim.Second)
	b1, b2 := float64(f.drv.SentBytes(1)), float64(f.drv.SentBytes(2))
	if r := b1 / b2; r < 0.85 || r > 1.18 {
		t.Fatalf("byte split %v vs %v (ratio %v)", b1, b2, r)
	}
}

func TestBoxedPacketsNeverInterleaveMidBalloon(t *testing.T) {
	f := newFixture(t)
	f.drv.BoxEnter(1)
	s1 := f.drv.NewSocket(1)
	s2 := f.drv.NewSocket(2)
	f.feeder(s1, 500, 3)
	f.feeder(s2, 1400, 3)
	// While resident, only box frames may be on the air.
	violations := 0
	var poll func(sim.Time)
	poll = func(sim.Time) {
		if f.resident[1] && f.n.Busy() {
			// Busy during residency must be the box's frame: check via
			// accounting — others' inflight should be zero.
			for _, a := range f.drv.led.Apps() {
				if a.ID != 1 && a.inflight > 0 {
					violations++
				}
			}
		}
		f.eng.After(100*sim.Microsecond, poll)
	}
	f.eng.After(100*sim.Microsecond, poll)
	f.eng.RunFor(2 * sim.Second)
	if violations != 0 {
		t.Fatalf("%d interleaving violations", violations)
	}
	if f.drv.SentBytes(1) == 0 || f.drv.SentBytes(2) == 0 {
		t.Fatal("both apps should transmit")
	}
}

func TestLostOpportunityDiscountsBoxCredit(t *testing.T) {
	f := newFixture(t)
	f.drv.BoxEnter(1)
	s1 := f.drv.NewSocket(1)
	s2 := f.drv.NewSocket(2)
	// Other app has a backlog the balloon blocks.
	f.drv.Send(s2, 1400)
	f.drv.Send(s2, 1400)
	f.eng.RunFor(5 * sim.Millisecond) // other's packets go out (box idle)
	vr0 := f.drv.VRuntime(1)
	f.drv.Send(s2, 1400)
	f.drv.Send(s2, 1400) // queued behind the in-flight one
	f.drv.Send(s1, 500)  // box claims a balloon
	f.eng.RunFor(20 * sim.Millisecond)
	gained := f.drv.VRuntime(1) - vr0
	// Box must be billed more than its own 500 bytes: the blocked backlog
	// is charged on top.
	if gained <= 500 {
		t.Fatalf("box billed only %v byte-credits", gained)
	}
}

func TestNICStateVirtualizationIsolatesTail(t *testing.T) {
	f := newFixture(t)
	f.drv.BoxEnter(1)
	s1 := f.drv.NewSocket(1)
	s2 := f.drv.NewSocket(2)
	vrail := f.drv.VirtualRail(1)
	cfg := f.n.Config()
	// Other app transmits, leaving the NIC in its tail state. The box's
	// virtual NIC must not see any of it.
	f.drv.Send(s2, 900)
	f.eng.RunFor(2 * sim.Millisecond)
	if f.n.Mode() != nic.ModeTail {
		t.Fatal("setup: NIC should be in tail")
	}
	if vrail.Power() != cfg.PSMW {
		t.Fatalf("virtual NIC leaked the other app's tail: %v W", vrail.Power())
	}
	// Box frame: after the drain settle it goes out; the virtual NIC shows
	// active power, then the box's OWN tail, then PSM.
	f.drv.Send(s1, 500) // 0.6ms airtime after the 12ms settle
	f.eng.RunFor(12*sim.Millisecond + 300*sim.Microsecond)
	if vrail.Power() != cfg.ActiveW[0] {
		t.Fatalf("virtual NIC should be active, %v W", vrail.Power())
	}
	f.eng.RunFor(2 * sim.Millisecond) // frame lands; balloon closes
	if vrail.Power() != cfg.TailW {
		t.Fatalf("virtual NIC should be in the box's own tail, %v W", vrail.Power())
	}
	if f.resident[1] {
		t.Fatal("balloon should close when the box goes idle")
	}
	f.eng.RunFor(cfg.TailTimeout + sim.Millisecond)
	if vrail.Power() != cfg.PSMW {
		t.Fatalf("virtual tail should have expired, %v W", vrail.Power())
	}
}

func TestResidencyCallbacksBalanced(t *testing.T) {
	f := newFixture(t)
	var events []bool
	f.drv.cbs.BoxResident = func(app int, r bool) { events = append(events, r) }
	f.drv.BoxEnter(1)
	s1 := f.drv.NewSocket(1)
	s2 := f.drv.NewSocket(2)
	f.feeder(s2, 1400, 2)
	for i := 0; i < 5; i++ {
		f.drv.Send(s1, 300)
		f.eng.RunFor(100 * sim.Millisecond)
	}
	f.eng.RunFor(200 * sim.Millisecond)
	if len(events) < 4 || len(events)%2 != 0 {
		t.Fatalf("events = %v", events)
	}
	for i, r := range events {
		if r != (i%2 == 0) {
			t.Fatalf("events must alternate: %v", events)
		}
	}
}

func TestQueueingLatencyGrowsWithBalloons(t *testing.T) {
	run := func(boxed bool) sim.Duration {
		f := newFixture(t)
		if boxed {
			f.drv.BoxEnter(1)
		}
		s1 := f.drv.NewSocket(1)
		s2 := f.drv.NewSocket(2)
		f.feeder(s2, 1400, 3)
		var tick func(sim.Time)
		tick = func(sim.Time) {
			f.drv.Send(s1, 300)
			f.eng.After(20*sim.Millisecond, tick)
		}
		tick(0)
		f.eng.RunFor(2 * sim.Second)
		return f.drv.MeanQueueingLatency(1)
	}
	unboxed, boxed := run(false), run(true)
	if boxed <= unboxed {
		t.Fatalf("boxed latency %v should exceed unboxed %v", boxed, unboxed)
	}
}

func TestBoxLeaveMidFlight(t *testing.T) {
	f := newFixture(t)
	f.drv.BoxEnter(1)
	s1 := f.drv.NewSocket(1)
	f.drv.Send(s1, 20000) // ~20ms on the air after the ~12ms drain settle
	f.eng.RunFor(15 * sim.Millisecond)
	if !f.resident[1] {
		t.Fatal("balloon should be open")
	}
	f.drv.BoxLeave(1)
	f.eng.RunFor(20 * sim.Millisecond) // frame lands ~17ms later
	if f.resident[1] {
		t.Fatal("residency should have ended at frame completion")
	}
	if f.drv.Phase() != PhaseNone {
		t.Fatalf("phase = %v", f.drv.Phase())
	}
	// Normal service resumes.
	s2 := f.drv.NewSocket(2)
	f.drv.Send(s2, 500)
	f.eng.RunFor(5 * sim.Millisecond)
	if f.drv.SentBytes(2) != 500 {
		t.Fatal("post-leave transmission failed")
	}
}

func TestBoxLeaveDuringDrain(t *testing.T) {
	f := newFixture(t)
	s2 := f.drv.NewSocket(2)
	f.drv.Send(s2, 5000) // in flight
	f.drv.BoxEnter(1)
	s1 := f.drv.NewSocket(1)
	f.drv.Send(s1, 500)
	if f.drv.Phase() != PhaseDrain {
		t.Fatalf("phase = %v, want drain", f.drv.Phase())
	}
	f.drv.BoxLeave(1)
	if f.drv.Phase() != PhaseNone {
		t.Fatal("leave should cancel the reservation")
	}
	f.eng.RunFor(20 * sim.Millisecond)
	if f.drv.SentBytes(1) != 500 {
		t.Fatal("ex-box packet should transmit normally")
	}
}

func TestSendValidation(t *testing.T) {
	f := newFixture(t)
	s := f.drv.NewSocket(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.drv.Send(s, 0)
}

func TestPhaseString(t *testing.T) {
	if PhaseNone.String() != "none" || PhaseDrain.String() != "drain" ||
		PhaseServe.String() != "serve" || Phase(7).String() != "phase(7)" {
		t.Fatal("phase strings wrong")
	}
}

// TestSnapshotBeforeVirtualNIC: an app that never entered a sandbox has no
// virtual NIC rail yet; checkpointing the scheduler must still encode it,
// and the encoding must change once the rail exists.
func TestSnapshotBeforeVirtualNIC(t *testing.T) {
	f := newFixture(t)
	f.drv.Send(f.drv.NewSocket(1), 900)
	f.eng.RunFor(2 * sim.Millisecond)
	before := snapshot.NewEncoder()
	f.drv.Snapshot(before)
	f.drv.VirtualRail(1)
	after := snapshot.NewEncoder()
	f.drv.Snapshot(after)
	if bytes.Equal(before.Data(), after.Data()) {
		t.Fatal("creating the virtual NIC rail left the checkpoint unchanged")
	}
}
