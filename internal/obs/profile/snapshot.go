package profile

import (
	"sort"

	"psbox/internal/snapshot"
)

// Snapshot encodes the profiler canonically: flags, the fold watermark,
// window accounting, and the weighted tree in sorted key order. Profiles
// survive crash-and-resume under the replay-twin contract — the resumed
// run re-folds the same windows, and the registry's byte comparison
// proves the trees match.
func (p *Profiler) Snapshot(enc *snapshot.Encoder) {
	enc.Bool(p.enabled)
	enc.Bool(p.armed)
	enc.I64(int64(p.through))
	enc.U64(p.windows)
	enc.U64(p.degraded)

	keys := make([]Key, 0, len(p.weights))
	for k := range p.weights {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Comp != b.Comp {
			return a.Comp < b.Comp
		}
		return a.Rail < b.Rail
	})
	enc.Len(len(keys))
	for _, k := range keys {
		enc.Str(k.App)
		enc.Str(k.Comp)
		enc.Str(k.Rail)
		enc.F64(p.weights[k])
	}
}
