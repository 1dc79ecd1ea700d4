package obs

import (
	"sort"

	"psbox/internal/snapshot"
)

// Snapshot encodes the bus canonically: emission accounting, the
// owner-name table and metric maps in sorted key order, and the retained
// ring oldest-first. Traces therefore survive crash-and-resume: the
// replay twin re-emits the same events and the registry's byte comparison
// proves it.
func (b *Bus) Snapshot(enc *snapshot.Encoder) {
	enc.Bool(b.enabled)
	enc.U64(b.seq)
	enc.U64(b.dropped)
	enc.Len(len(b.ring))

	ids := make([]int, 0, len(b.owners))
	for id := range b.owners {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	enc.Len(len(ids))
	for _, id := range ids {
		enc.I64(int64(id))
		enc.Str(b.owners[id])
	}

	enc.Len(b.n)
	for i := 0; i < b.n; i++ {
		ev := b.ring[(b.start+i)%len(b.ring)]
		enc.U64(ev.Seq)
		enc.U8(uint8(ev.Type))
		enc.I64(int64(ev.T))
		enc.I64(int64(ev.End))
		enc.Str(ev.Cat)
		enc.Str(ev.Kind)
		enc.I64(int64(ev.Owner))
		enc.I64(ev.Arg)
		enc.Str(ev.Rail)
		enc.Str(ev.Name)
	}

	encKey := func(k Key) {
		enc.Str(k.Name)
		enc.I64(int64(k.Owner))
		enc.Str(k.Rail)
	}
	cks := sortKeys(b.counters)
	enc.Len(len(cks))
	for _, k := range cks {
		encKey(k)
		enc.I64(b.counters[k])
	}
	gks := sortKeys(b.gauges)
	enc.Len(len(gks))
	for _, k := range gks {
		encKey(k)
		enc.F64(b.gauges[k])
	}
	hks := sortKeys(b.hists)
	enc.Len(len(hks))
	for _, k := range hks {
		encKey(k)
		h := b.hists[k]
		enc.U64(h.Count)
		enc.I64(int64(h.Sum))
		for _, n := range h.Buckets {
			enc.U64(n)
		}
	}
}
