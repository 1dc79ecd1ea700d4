package daemon

import (
	"sort"

	"psbox/internal/snapshot"
)

// Snapshot encodes the daemon: its identity and mode, the bounded request
// queue in order, the per-client acceptance counters (sorted by client),
// and both drop counters.
func (s *RenderServer) Snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(s.app.ID))
	enc.Str(s.dev)
	enc.Bool(s.aware)
	enc.I64(int64(s.maxQueue))
	enc.Len(len(s.queue))
	for _, req := range s.queue {
		enc.I64(int64(req.Client))
		enc.Str(req.Kind)
		enc.F64(req.Work)
		enc.F64(req.DynW)
	}
	clients := make([]int, 0, len(s.accepted))
	for c := range s.accepted {
		clients = append(clients, c)
	}
	sort.Ints(clients)
	enc.Len(len(clients))
	for _, c := range clients {
		enc.I64(int64(c))
		enc.U64(s.accepted[c])
	}
	enc.U64(s.dropped)
	enc.U64(s.droppedOverflow)
	victims := make([]int, 0, len(s.droppedOverflowBy))
	for c := range s.droppedOverflowBy {
		victims = append(victims, c)
	}
	sort.Ints(victims)
	enc.Len(len(victims))
	for _, c := range victims {
		enc.I64(int64(c))
		enc.U64(s.droppedOverflowBy[c])
	}
}
