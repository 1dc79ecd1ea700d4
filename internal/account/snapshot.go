package account

import "psbox/internal/snapshot"

// Snapshot encodes the recorder's occupancy spans in insertion order (the
// drivers' usage callbacks fire deterministically, so the order is stable
// across replays).
func (r *Recorder) Snapshot(enc *snapshot.Encoder) {
	enc.Len(len(r.spans))
	for _, s := range r.spans {
		enc.I64(int64(s.Owner))
		enc.I64(int64(s.Start))
		enc.I64(int64(s.End))
	}
}
