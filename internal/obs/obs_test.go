package obs

import (
	"testing"

	"psbox/internal/sim"
	"psbox/internal/snapshot"
)

func newEnabled(t *testing.T, capacity int) (*sim.Engine, *Bus) {
	t.Helper()
	eng := sim.NewEngine()
	b := NewBus(eng, capacity)
	b.Enable()
	return eng, b
}

func TestRingDropsOldestWithExactAccounting(t *testing.T) {
	_, b := newEnabled(t, 4)
	for i := 0; i < 6; i++ {
		b.Instant(CatSim, "tick", 0, int64(i), "", "")
	}
	if got := b.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := b.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	if got := b.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	evs := b.Events()
	// Seq is gap-free even across drops: the retained window is 3..6.
	for i, ev := range evs {
		if want := uint64(i + 3); ev.Seq != want {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, want)
		}
		if want := int64(i + 2); ev.Arg != want {
			t.Errorf("event %d: Arg = %d, want %d", i, ev.Arg, want)
		}
	}
}

func TestDefaultCapacity(t *testing.T) {
	_, b := newEnabled(t, 0)
	if b.Capacity() != DefaultCapacity {
		t.Fatalf("Capacity = %d, want %d", b.Capacity(), DefaultCapacity)
	}
}

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	b.Instant(CatSim, "tick", 0, 0, "", "")
	b.Span(CatSched, "run", 1, 0, "cpu", "task", 0)
	b.Count("x", 0, "", 1)
	b.Gauge("x", 0, "", 1)
	b.Observe("x", 0, "", sim.Millisecond)
	b.NameOwner(1, "app")
	if b.Enabled() || b.Len() != 0 || b.Total() != 0 || b.Dropped() != 0 {
		t.Fatal("nil bus should observe nothing")
	}
	if b.OwnerName(1) != "" || b.Counter("x", 0, "") != 0 ||
		b.GaugeValue("x", 0, "") != 0 || b.Histogram("x", 0, "") != nil {
		t.Fatal("nil bus readers should return zero values")
	}
	if d := b.Dump(); len(d.Events) != 0 || d.Total != 0 {
		t.Fatal("nil bus dump should be empty")
	}
}

func TestDisabledBusRecordsNothing(t *testing.T) {
	eng := sim.NewEngine()
	b := NewBus(eng, 8)
	b.Instant(CatSim, "tick", 0, 0, "", "")
	b.Count("x", 0, "", 1)
	b.Observe("x", 0, "", sim.Millisecond)
	if b.Total() != 0 || b.Counter("x", 0, "") != 0 || b.Histogram("x", 0, "") != nil {
		t.Fatal("disabled bus should record nothing")
	}
	// Owner naming still lands: app creation precedes EnableTracing.
	b.NameOwner(1, "early")
	if b.OwnerName(1) != "early" {
		t.Fatal("owner naming should work while disabled")
	}
	b.Enable()
	b.Instant(CatSim, "tick", 0, 0, "", "")
	if b.Total() != 1 {
		t.Fatal("enabled bus should record")
	}
}

func TestSpanAndInstantStamps(t *testing.T) {
	eng, b := newEnabled(t, 8)
	start := eng.Now()
	eng.At(sim.Time(5*sim.Millisecond), func(sim.Time) {
		b.Span(CatSched, "run", 2, 7, "cpu", "taskA", start)
		b.Instant(CatDVFS, "freq-change", 0, 1, "cpu", "cpu")
	})
	eng.RunFor(10 * sim.Millisecond)
	evs := b.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	sp := evs[0]
	if sp.Type != TypeSpan || sp.T != 0 || sp.End != sim.Time(5*sim.Millisecond) {
		t.Fatalf("span stamped %v..%v type=%v", sp.T, sp.End, sp.Type)
	}
	in := evs[1]
	if in.Type != TypeInstant || in.T != in.End || in.T != sim.Time(5*sim.Millisecond) {
		t.Fatalf("instant stamped %v..%v", in.T, in.End)
	}
}

// fill drives one bus through a fixed emission schedule.
func fill(b *Bus, extra bool) {
	b.NameOwner(1, "vision#1")
	b.NameOwner(2, "stream#2")
	b.Enable()
	for i := 0; i < 10; i++ {
		b.Instant(CatSched, "switch", 1+i%2, int64(i), "cpu", "t")
		b.Span(CatAccel, "exec", 1, int64(i), "gpu", "frame", 0)
	}
	b.Count("sched.ctx_switches", 0, "cpu", 10)
	b.Gauge("dvfs.freq_mhz", 0, "cpu", 600)
	b.Observe("sched.wake_latency", 1, "", 3*sim.Millisecond)
	if extra {
		b.Instant(CatFault, "nic-flap", 0, 0, "", "wifi")
	}
}

func TestSnapshotVerifiesReplayTwin(t *testing.T) {
	eng := sim.NewEngine()
	b := NewBus(eng, 8) // small ring: exercises drop accounting in the snapshot
	fill(b, false)

	reg := snapshot.NewRegistry()
	reg.Add("obs", b.Snapshot)
	data := reg.Checkpoint()

	// A replay twin — same construction, same emissions — verifies.
	twin := NewBus(sim.NewEngine(), 8)
	fill(twin, false)
	reg2 := snapshot.NewRegistry()
	reg2.Add("obs", twin.Snapshot)
	if err := reg2.Restore(data); err != nil {
		t.Fatalf("replay twin should verify: %v", err)
	}

	// A diverged twin — one extra event — must be rejected.
	diverged := NewBus(sim.NewEngine(), 8)
	fill(diverged, true)
	reg3 := snapshot.NewRegistry()
	reg3.Add("obs", diverged.Snapshot)
	if err := reg3.Restore(data); err == nil {
		t.Fatal("diverged twin should fail verification")
	}
}
