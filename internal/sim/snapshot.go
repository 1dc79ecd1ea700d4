package sim

import (
	"sort"

	"psbox/internal/snapshot"
)

// Seq exposes the handle's event sequence number. Sequence numbers are
// allocated deterministically (one per At call), so they are stable across
// replays and safe to include in checkpoint encodings; other packages use
// Seq to encode their armed timers.
func (h Handle) Seq() uint64 { return h.seq }

// Snapshot encodes the generator's stream position.
func (r *Rand) Snapshot(enc *snapshot.Encoder) { enc.U64(r.state) }

// Snapshot encodes the engine: clock, sequence allocator, fired-event
// count, and the pending event set as sorted (at, seq) pairs. Event
// callbacks are closures and are deliberately not encoded — the replay-twin
// restore contract (DESIGN.md) rebuilds them by re-running the scenario,
// and the (at, seq) pairs pin the rebuilt queue to the checkpointed one.
func (e *Engine) Snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(e.now))
	enc.U64(e.nextSeq)
	enc.U64(e.fired)
	pending := make([]*item, len(e.queue))
	copy(pending, e.queue)
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].at != pending[j].at {
			return pending[i].at < pending[j].at
		}
		return pending[i].seq < pending[j].seq
	})
	enc.Len(len(pending))
	for _, it := range pending {
		enc.I64(int64(it.at))
		enc.U64(it.seq)
	}
}
