package netsched

import (
	"testing"
	"testing/quick"

	"psbox/internal/sim"
)

// TestQuickBytesConservation: under random send patterns and box churn,
// every enqueued byte is eventually transmitted exactly once.
func TestQuickBytesConservation(t *testing.T) {
	f := func(seed uint64, raw []uint8) bool {
		fx := newFixture(t)
		r := sim.NewRand(seed)
		socks := map[int]*Socket{
			1: fx.drv.NewSocket(1),
			2: fx.drv.NewSocket(2),
			3: fx.drv.NewSocket(3),
		}
		if r.Intn(2) == 0 {
			fx.drv.BoxEnter(1)
		}
		sent := map[int]uint64{}
		n := 0
		for _, v := range raw {
			if n >= 30 {
				break
			}
			n++
			app := int(v)%3 + 1
			bytes := int(v)*7 + 100
			at := sim.Duration(r.Intn(300)) * sim.Millisecond
			fx.eng.After(at, func(sim.Time) {
				sent[app] += uint64(bytes)
				fx.drv.Send(socks[app], bytes)
			})
		}
		for i := 0; i < 3; i++ {
			app := r.Intn(3) + 1
			at := sim.Duration(50+r.Intn(250)) * sim.Millisecond
			if i%2 == 0 {
				fx.eng.After(at, func(sim.Time) { fx.drv.BoxLeave(app) })
			} else {
				fx.eng.After(at, func(sim.Time) { fx.drv.BoxEnter(app) })
			}
		}
		fx.eng.RunFor(10 * sim.Second)
		for app := 1; app <= 3; app++ {
			if fx.drv.SentBytes(app) != sent[app] || fx.drv.Backlog(app) != 0 {
				return false
			}
		}
		return !fx.n.Busy()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVirtualNICOnlySeesOwner: the per-sandbox virtual NIC never
// shows active power while another app's frame is on the air.
func TestQuickVirtualNICOnlySeesOwner(t *testing.T) {
	f := func(seed uint64) bool {
		fx := newFixture(t)
		r := sim.NewRand(seed)
		fx.drv.BoxEnter(1)
		s1 := fx.drv.NewSocket(1)
		s2 := fx.drv.NewSocket(2)
		fx.feeder(s2, 1200+r.Intn(400), 3)
		var box func(sim.Time)
		box = func(sim.Time) {
			fx.drv.Send(s1, 300+r.Intn(500))
			fx.eng.After(sim.Duration(30+r.Intn(80))*sim.Millisecond, box)
		}
		box(0)
		vrail := fx.drv.VirtualRail(1)
		cfg := fx.n.Config()
		ok := true
		var poll func(sim.Time)
		poll = func(sim.Time) {
			if vrail.Power() == cfg.ActiveW[0] {
				// Claimed active: the box itself must have a frame on air.
				if a, found := fx.drv.led.Get(1); !found || a.inflight == 0 {
					ok = false
				}
			}
			fx.eng.After(150*sim.Microsecond, poll)
		}
		fx.eng.After(150*sim.Microsecond, poll)
		fx.eng.RunFor(1 * sim.Second)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestBoxLeaveInEveryNetPhase: teardown is safe in every balloon phase.
func TestBoxLeaveInEveryNetPhase(t *testing.T) {
	for _, leaveAt := range []sim.Duration{
		0,                     // reservation just made (drain)
		6 * sim.Millisecond,   // mid drain settle
		14 * sim.Millisecond,  // serving, frame on air
		300 * sim.Millisecond, // long after
	} {
		fx := newFixture(t)
		s1 := fx.drv.NewSocket(1)
		s2 := fx.drv.NewSocket(2)
		fx.drv.BoxEnter(1)
		fx.drv.Send(s1, 3000)
		fx.drv.Send(s2, 2000)
		fx.eng.RunFor(leaveAt)
		fx.drv.BoxLeave(1)
		fx.eng.RunFor(2 * sim.Second)
		if fx.drv.Backlog(1) != 0 || fx.drv.Backlog(2) != 0 {
			t.Fatalf("leaveAt=%v: backlog stuck", leaveAt)
		}
		if fx.drv.Phase() != PhaseNone {
			t.Fatalf("leaveAt=%v: phase %v", leaveAt, fx.drv.Phase())
		}
		fx.drv.Send(s1, 400)
		fx.eng.RunFor(1 * sim.Second)
		if fx.drv.Backlog(1) != 0 {
			t.Fatalf("leaveAt=%v: post-leave service broken", leaveAt)
		}
	}
}
