package account

import (
	"psbox/internal/obs"
	"psbox/internal/snapshot"
)

// Snapshot encodes the recorder's occupancy spans, then its balloon
// windows, each in insertion order (the kernel's usage hooks fire
// deterministically, so the order is stable across replays).
func (r *Recorder) Snapshot(enc *snapshot.Encoder) {
	for _, list := range [][]obs.Interval{r.spans, r.windows} {
		enc.Len(len(list))
		for _, s := range list {
			enc.I64(int64(s.Owner))
			enc.I64(int64(s.Start))
			enc.I64(int64(s.End))
		}
	}
}
