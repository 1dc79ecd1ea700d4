package display

import (
	"sort"

	"psbox/internal/snapshot"
)

// Snapshot encodes the panel: power, regions (sorted by owner), the rail
// history, and every per-app attribution rail.
func (d *Display) Snapshot(enc *snapshot.Encoder) {
	enc.Bool(d.on)
	owners := make([]int, 0, len(d.regions))
	for o := range d.regions {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	enc.Len(len(owners))
	for _, o := range owners {
		r := d.regions[o]
		enc.I64(int64(o))
		enc.I64(int64(r.Owner))
		enc.I64(int64(r.Pixels))
		enc.F64(r.Luminance)
	}
	d.rail.Snapshot(enc)
	ownerIDs := make([]int, 0, len(d.ownerRails))
	for o := range d.ownerRails {
		ownerIDs = append(ownerIDs, o)
	}
	sort.Ints(ownerIDs)
	enc.Len(len(ownerIDs))
	for _, o := range ownerIDs {
		enc.I64(int64(o))
		d.ownerRails[o].Snapshot(enc)
	}
}
