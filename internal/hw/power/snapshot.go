package power

import "psbox/internal/snapshot"

// Snapshot encodes the rail's full piecewise-constant power history. Rails
// are the ground truth every meter integrates, so checkpoint verification
// of the segment list catches any power-model divergence at its source.
// A nil rail (a lazily built one not yet created) encodes as an empty
// one: no name, no segments, which no live rail matches.
func (r *Rail) Snapshot(enc *snapshot.Encoder) {
	if r == nil {
		enc.Str("")
		enc.Len(0)
		return
	}
	enc.Str(r.name)
	enc.Len(len(r.segs))
	for _, s := range r.segs {
		enc.I64(int64(s.start))
		enc.F64(float64(s.w))
	}
}
