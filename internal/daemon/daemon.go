// Package daemon models a userspace multiplexing daemon, the paper's §7
// "Userspace OS daemon" case: on systems like Android, app requests are
// multiplexed not only by kernel drivers but by user-level servers (the
// render/composition server, the media server). Such a daemon submits
// device work on its clients' behalf — and unless it is made to respect
// psbox boundaries, every client's power impact collapses onto the
// daemon's identity: balloons cannot insulate it and a client's sandbox
// observes nothing of its own rendering.
//
// RenderServer implements both behaviours: the naive daemon submits under
// its own app ID; the psbox-aware daemon tags each submission with the
// requesting client (the kernel's SubmitAccelAs delegation), restoring
// per-client balloons and attribution.
package daemon

import (
	"fmt"

	"psbox/internal/kernel"
	"psbox/internal/sim"
)

// Request is one unit of client work for the daemon.
type Request struct {
	Client int // requesting app ID
	Kind   string
	Work   float64
	DynW   float64
}

// DefaultQueueBound is the daemon's request-queue capacity. Real render
// servers bound their IPC queues; an unbounded queue would also let one
// runaway client grow daemon state without limit.
const DefaultQueueBound = 256

// RenderServer is a render-server daemon over one accelerator.
type RenderServer struct {
	app   *kernel.App
	dev   string
	aware bool

	queue    []Request
	maxQueue int
	accepted map[int]uint64
	dropped  uint64

	// droppedOverflow counts requests discarded at Submit time because the
	// queue was full (drop-oldest: the discarded request is the queue head,
	// the stalest work, deterministically). droppedOverflowBy breaks the
	// same count down by the discarded request's client, so a flood from
	// one client that evicts another's stale frames is attributable.
	droppedOverflow   uint64
	droppedOverflowBy map[int]uint64
}

// NewRenderServer registers the daemon app and spawns its server loop on
// the given core. If aware is true the daemon respects psbox boundaries by
// delegating submissions to the requesting client's identity.
func NewRenderServer(k *kernel.Kernel, dev string, core int, aware bool) *RenderServer {
	s := &RenderServer{
		dev:               dev,
		aware:             aware,
		maxQueue:          DefaultQueueBound,
		accepted:          make(map[int]uint64),
		droppedOverflowBy: make(map[int]uint64),
	}
	s.app = k.NewApp("renderd")
	s.app.Spawn("server", core, kernel.ProgramFunc(s.step))
	return s
}

// App returns the daemon's own principal.
func (s *RenderServer) App() *kernel.App { return s.app }

// SetQueueBound changes the queue capacity; n must be positive.
func (s *RenderServer) SetQueueBound(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("daemon: queue bound must be positive, got %d", n))
	}
	s.maxQueue = n
}

// Submit enqueues a client request (the IPC into the daemon). Client
// programs call this from their step functions; the enqueue itself is
// cheap, the daemon's marshalling cost is paid by the daemon's CPU task.
// When the queue is at capacity the oldest queued request is discarded
// to make room — stale frames lose to fresh ones, deterministically.
func (s *RenderServer) Submit(req Request) {
	if req.Work <= 0 {
		panic(fmt.Sprintf("daemon: empty request from client %d", req.Client))
	}
	for len(s.queue) >= s.maxQueue {
		s.droppedOverflowBy[s.queue[0].Client]++
		s.queue = s.queue[1:]
		s.droppedOverflow++
	}
	s.queue = append(s.queue, req)
	s.accepted[req.Client]++
}

// Accepted reports how many requests a client has handed to the daemon.
func (s *RenderServer) Accepted(client int) uint64 { return s.accepted[client] }

// QueueLen reports requests waiting in the daemon.
func (s *RenderServer) QueueLen() int { return len(s.queue) }

// Dropped reports how many queued requests were discarded at serve time
// because their client had already exited.
func (s *RenderServer) Dropped() uint64 { return s.dropped }

// DroppedOverflow reports how many requests were discarded at submit time
// because the bounded queue was full.
func (s *RenderServer) DroppedOverflow() uint64 { return s.droppedOverflow }

// DroppedOverflowFor reports how many of the overflow-discarded requests
// belonged to the given client.
func (s *RenderServer) DroppedOverflowFor(client int) uint64 { return s.droppedOverflowBy[client] }

// step is the daemon's server loop: poll the request queue, marshal, and
// submit to the device — under the client's identity when aware, under the
// daemon's own otherwise.
func (s *RenderServer) step(env *kernel.Env) kernel.Action {
	for len(s.queue) > 0 {
		req := s.queue[0]
		s.queue = s.queue[1:]
		if c := s.app.Kernel().FindApp(req.Client); c == nil || !c.Alive() {
			// The client exited between the IPC and service. Rendering the
			// frame anyway would burn device power nobody consumes — and
			// under the naive daemon, bill it to the daemon's identity with
			// no principal left to answer for it. Discard at serve time.
			s.dropped++
			continue
		}
		env.Count("served", 1)
		if s.aware {
			return kernel.SubmitAccelAs{
				Dev: s.dev, Kind: req.Kind, Work: req.Work, DynW: req.DynW,
				OnBehalfOf: req.Client,
			}
		}
		return kernel.SubmitAccel{Dev: s.dev, Kind: req.Kind, Work: req.Work, DynW: req.DynW}
	}
	// An event-driven server parks between requests; the poll period
	// stands in for its wakeup latency.
	return kernel.Sleep{D: 500 * sim.Microsecond}
}

// Client builds a frame-paced client program that renders through the
// daemon: marshal on the CPU, hand the request over, sleep to the next
// frame.
func (s *RenderServer) Client(app *kernel.App, kind string, work, dynW float64,
	frame sim.Duration) kernel.Program {
	step := 0
	return kernel.ProgramFunc(func(env *kernel.Env) kernel.Action {
		step++
		switch step % 3 {
		case 1:
			return kernel.Compute{Cycles: float64(env.Rand.Jitter(2e5, 0.15))}
		case 2:
			s.Submit(Request{Client: app.ID, Kind: kind,
				Work: float64(env.Rand.Jitter(int64(work), 0.1)), DynW: dynW})
			env.Count("frames", 1)
			return kernel.Compute{Cycles: 1}
		default:
			return kernel.Sleep{D: frame}
		}
	})
}
