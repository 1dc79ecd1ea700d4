package gps

import (
	"sort"

	"psbox/internal/snapshot"
)

// Snapshot encodes the receiver: acquisition state machine, the holders'
// acquire counts (sorted by owner), the armed lock timer, the rail
// history, and every per-app observable rail.
func (g *GPS) Snapshot(enc *snapshot.Encoder) {
	enc.U8(uint8(g.state))
	enc.I64(int64(g.users))
	enc.U64(g.lock.Seq())
	owners := make([]int, 0, len(g.holders))
	for o := range g.holders {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	enc.Len(len(owners))
	for _, o := range owners {
		enc.I64(int64(o))
		enc.I64(int64(g.holders[o]))
	}
	g.rail.Snapshot(enc)
	railOwners := make([]int, 0, len(g.ownerRails))
	for o := range g.ownerRails {
		railOwners = append(railOwners, o)
	}
	sort.Ints(railOwners)
	enc.Len(len(railOwners))
	for _, o := range railOwners {
		enc.I64(int64(o))
		g.ownerRails[o].Snapshot(enc)
	}
}
