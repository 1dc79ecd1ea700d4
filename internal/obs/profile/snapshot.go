package profile

import "psbox/internal/snapshot"

// Snapshot encodes the profiler canonically: flags, the fold watermark,
// window accounting, and the weighted tree in sorted key order. Profiles
// survive crash-and-resume under the replay-twin contract — the resumed
// run re-folds the same windows, and the registry's byte comparison
// proves the trees match.
func (p *Profiler) Snapshot(enc *snapshot.Encoder) {
	enc.Bool(p.enabled)
	enc.Bool(p.enabled) // the wire format carries the flag twice
	enc.I64(int64(p.through))
	enc.U64(p.windows)
	enc.U64(p.degraded)

	enc.Len(len(p.weights))
	for _, e := range p.Entries() {
		enc.Str(e.App)
		enc.Str(e.Comp)
		enc.Str(e.Rail)
		enc.F64(e.J)
	}
}
