package daemon_test

import (
	"bytes"
	"math"
	"testing"

	psbox "psbox"
	"psbox/internal/daemon"
	"psbox/internal/sim"
)

// build wires a render server and two clients on the AM57 GPU.
func build(t *testing.T, seed uint64, aware bool) (*psbox.System, *daemon.RenderServer, *psbox.App, *psbox.App) {
	t.Helper()
	sys := psbox.NewAM57(seed)
	srv := daemon.NewRenderServer(sys.Kernel, "gpu", 0, aware)
	a := sys.Kernel.NewApp("clientA")
	a.Spawn("render", 0, srv.Client(a, "frameA", 3000, 0.6, 20*sim.Millisecond))
	b := sys.Kernel.NewApp("clientB")
	b.Spawn("render", 1, srv.Client(b, "frameB", 9000, 0.8, 16*sim.Millisecond))
	return sys, srv, a, b
}

func TestDaemonServesClients(t *testing.T) {
	sys, srv, a, b := build(t, 1, true)
	sys.Run(1 * psbox.Second)
	if srv.Accepted(a.ID) < 30 || srv.Accepted(b.ID) < 30 {
		t.Fatalf("accepted = %d/%d", srv.Accepted(a.ID), srv.Accepted(b.ID))
	}
	if srv.App().Counter("served") < 60 {
		t.Fatalf("served = %v", srv.App().Counter("served"))
	}
	if srv.QueueLen() > 4 {
		t.Fatalf("daemon backlog growing: %d", srv.QueueLen())
	}
}

func TestNaiveDaemonCollapsesAttribution(t *testing.T) {
	sys, srv, a, b := build(t, 2, false)
	sys.Run(1 * psbox.Second)
	drv := sys.Kernel.Accel("gpu")
	// All device work lands on the daemon's identity.
	if drv.Completed(a.ID) != 0 || drv.Completed(b.ID) != 0 {
		t.Fatal("clients should own no commands under the naive daemon")
	}
	if drv.Completed(srv.App().ID) < 60 {
		t.Fatalf("daemon owns %d commands", drv.Completed(srv.App().ID))
	}
}

func TestAwareDaemonPreservesClientIdentity(t *testing.T) {
	sys, srv, a, b := build(t, 3, true)
	sys.Run(1 * psbox.Second)
	drv := sys.Kernel.Accel("gpu")
	if drv.Completed(srv.App().ID) != 0 {
		t.Fatal("aware daemon should own no device work itself")
	}
	if drv.Completed(a.ID) < 30 || drv.Completed(b.ID) < 30 {
		t.Fatalf("clients own %d/%d commands", drv.Completed(a.ID), drv.Completed(b.ID))
	}
}

// The §7 point end to end: a client's GPU sandbox works through an aware
// daemon (observation ≈ direct submission) and is blind through a naive
// one.
func TestClientSandboxThroughDaemon(t *testing.T) {
	observe := func(aware bool) float64 {
		sys, _, a, _ := build(t, 4, aware)
		box := sys.Sandbox.MustCreate(a, psbox.HWGPU)
		box.Enter()
		sys.Run(1 * psbox.Second)
		return box.Read()
	}
	idleOnly := func() float64 {
		// Reference: one second of pure GPU idle power.
		sys := psbox.NewAM57(4)
		return sys.Kernel.Accel("gpu").Device().IdlePower() * 1.0
	}

	naive := observe(false)
	aware := observe(true)
	idle := idleOnly()

	// Through the naive daemon the box sees only idle fill.
	if math.Abs(naive-idle)/idle > 0.02 {
		t.Fatalf("naive-daemon observation %v should equal idle %v", naive, idle)
	}
	// Through the aware daemon it sees its own rendering on top.
	if aware < idle*1.05 {
		t.Fatalf("aware-daemon observation %v barely above idle %v", aware, idle)
	}
}

func TestDaemonEmptyRequestPanics(t *testing.T) {
	sys := psbox.NewAM57(5)
	srv := daemon.NewRenderServer(sys.Kernel, "gpu", 0, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	srv.Submit(daemon.Request{Client: 1, Work: 0})
}

func TestDelegationForUnknownAppPanics(t *testing.T) {
	sys := psbox.NewAM57(6)
	app := sys.Kernel.NewApp("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	// The task starts executing at spawn; the bad delegation trips there
	// or at the latest inside Run.
	app.Spawn("t", 0, psbox.Sequence(
		psbox.SubmitAccelAs{Dev: "gpu", Kind: "k", Work: 100, DynW: 0.1, OnBehalfOf: 999},
	))
	sys.Run(10 * psbox.Millisecond)
}

// A client that exits with requests still queued must not have them
// rendered: the daemon discards them at serve time and counts the drops,
// while a live client's requests are served as usual. Both daemon modes
// must drop — the naive one would otherwise bill orphaned frames to its
// own identity forever.
func TestDaemonDropsRequestsFromDeadClients(t *testing.T) {
	for _, aware := range []bool{true, false} {
		sys := psbox.NewAM57(7)
		srv := daemon.NewRenderServer(sys.Kernel, "gpu", 0, aware)

		ghost := sys.Kernel.NewApp("ghost")
		ghost.Spawn("noop", 1, psbox.Sequence()) // exits immediately
		live := sys.Kernel.NewApp("live")
		live.Spawn("park", 1, psbox.Loop(psbox.Sleep{D: 50 * sim.Millisecond}))

		for i := 0; i < 3; i++ {
			srv.Submit(daemon.Request{Client: ghost.ID, Kind: "orphan", Work: 1000, DynW: 0.5})
		}
		srv.Submit(daemon.Request{Client: live.ID, Kind: "frame", Work: 1000, DynW: 0.5})

		sys.Run(100 * psbox.Millisecond)

		if got := srv.Dropped(); got != 3 {
			t.Fatalf("aware=%v: dropped = %d, want 3", aware, got)
		}
		if srv.QueueLen() != 0 {
			t.Fatalf("aware=%v: queue stuck at %d", aware, srv.QueueLen())
		}
		drv := sys.Kernel.Accel("gpu")
		if drv.Completed(ghost.ID) != 0 {
			t.Fatalf("aware=%v: dead client's work reached the device", aware)
		}
		served := drv.Completed(live.ID) + drv.Completed(srv.App().ID)
		if served != 1 {
			t.Fatalf("aware=%v: live client's request not served: %d", aware, served)
		}
	}
}

// TestOverflowDropsAttributedPerClient: when a flood from one client
// evicts the queue's stale heads, the per-client overflow counters record
// whose work was discarded, and churning dead clients through the queue
// keeps the breakdown deterministic (it always equals the eviction order
// of the bounded queue, never map iteration).
func TestOverflowDropsAttributedPerClient(t *testing.T) {
	sys := psbox.NewAM57(8)
	srv := daemon.NewRenderServer(sys.Kernel, "gpu", 0, true)
	srv.SetQueueBound(4)

	// Two churn generations of short-lived clients whose requests go
	// stale, then a flood that evicts them.
	ghostA := sys.Kernel.NewApp("ghostA")
	ghostA.Spawn("noop", 1, psbox.Sequence())
	ghostB := sys.Kernel.NewApp("ghostB")
	ghostB.Spawn("noop", 1, psbox.Sequence())
	flood := sys.Kernel.NewApp("flood")
	flood.Spawn("park", 1, psbox.Loop(psbox.Sleep{D: 50 * sim.Millisecond}))

	for i := 0; i < 3; i++ {
		srv.Submit(daemon.Request{Client: ghostA.ID, Kind: "stale", Work: 1000, DynW: 0.5})
	}
	srv.Submit(daemon.Request{Client: ghostB.ID, Kind: "stale", Work: 1000, DynW: 0.5})
	// Queue is now full [A A A B]; six fresh requests evict all four
	// stale heads (3×A, 1×B) and then two of their own.
	for i := 0; i < 6; i++ {
		srv.Submit(daemon.Request{Client: flood.ID, Kind: "fresh", Work: 1000, DynW: 0.5})
	}

	if got := srv.DroppedOverflow(); got != 6 {
		t.Fatalf("overflow = %d, want 6", got)
	}
	if got := srv.DroppedOverflowFor(ghostA.ID); got != 3 {
		t.Fatalf("ghostA overflow = %d, want 3", got)
	}
	if got := srv.DroppedOverflowFor(ghostB.ID); got != 1 {
		t.Fatalf("ghostB overflow = %d, want 1", got)
	}
	if got := srv.DroppedOverflowFor(flood.ID); got != 2 {
		t.Fatalf("flood overflow = %d, want 2", got)
	}
	if got := srv.DroppedOverflowFor(999); got != 0 {
		t.Fatalf("unknown client overflow = %d, want 0", got)
	}

	// The dead-client churn stays deterministic end to end: twin systems
	// running the daemon under the same churn produce byte-identical
	// checkpoints of it (the per-client breakdown is encoded sorted).
	sys.RegisterSnapshotter("daemon", srv.Snapshot)
	sys.Run(100 * psbox.Millisecond)
	twin := func() []byte {
		s2 := psbox.NewAM57(8)
		sv2 := daemon.NewRenderServer(s2.Kernel, "gpu", 0, true)
		sv2.SetQueueBound(4)
		gA := s2.Kernel.NewApp("ghostA")
		gA.Spawn("noop", 1, psbox.Sequence())
		gB := s2.Kernel.NewApp("ghostB")
		gB.Spawn("noop", 1, psbox.Sequence())
		fl := s2.Kernel.NewApp("flood")
		fl.Spawn("park", 1, psbox.Loop(psbox.Sleep{D: 50 * sim.Millisecond}))
		for i := 0; i < 3; i++ {
			sv2.Submit(daemon.Request{Client: gA.ID, Kind: "stale", Work: 1000, DynW: 0.5})
		}
		sv2.Submit(daemon.Request{Client: gB.ID, Kind: "stale", Work: 1000, DynW: 0.5})
		for i := 0; i < 6; i++ {
			sv2.Submit(daemon.Request{Client: fl.ID, Kind: "fresh", Work: 1000, DynW: 0.5})
		}
		s2.RegisterSnapshotter("daemon", sv2.Snapshot)
		s2.Run(100 * psbox.Millisecond)
		return s2.Snapshot()
	}
	if a, b := sys.Snapshot(), twin(); !bytes.Equal(a, b) {
		t.Fatalf("twin daemon checkpoints differ: %d vs %d bytes", len(a), len(b))
	}
}
