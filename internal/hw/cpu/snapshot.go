package cpu

import "psbox/internal/snapshot"

// Snapshot encodes the cluster's DVFS and governor state: operating point,
// per-core busy tracking, governor window accounting, and the DVFS-stall
// fault latch.
func (c *CPU) Snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(c.freqIdx))
	enc.Len(len(c.busy))
	for i := range c.busy {
		enc.Bool(c.busy[i])
		enc.I64(int64(c.busySince[i]))
		enc.I64(int64(c.busyAccum[i]))
	}
	enc.I64(int64(c.windowStart))
	enc.Bool(c.govArmed)
	enc.Bool(c.govSuspended)
	enc.I64(int64(c.stallUntil))
	enc.I64(int64(c.stallPending))
	enc.U64(c.stallArm.Seq())
	enc.U64(c.stalls)
	c.rail.Snapshot(enc)
}
