package dram

import "psbox/internal/snapshot"

// Snapshot encodes the channel: per-core access streams and the rail
// history.
func (d *DRAM) Snapshot(enc *snapshot.Encoder) {
	enc.Len(len(d.streams))
	for _, gbs := range d.streams {
		enc.F64(gbs)
	}
	d.rail.Snapshot(enc)
}
