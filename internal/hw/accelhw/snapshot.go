package accelhw

import "psbox/internal/snapshot"

// Snapshot encodes one command's full lifecycle state. Commands are plain
// data, so they are encoded wherever they sit — driver pending queues,
// the device ring, or the execution slots.
func (c *Command) Snapshot(enc *snapshot.Encoder) {
	enc.U64(c.ID)
	enc.I64(int64(c.Owner))
	enc.Str(c.Kind)
	enc.F64(c.Work)
	enc.F64(float64(c.DynW))
	enc.I64(int64(c.Submitted))
	enc.I64(int64(c.Dispatched))
	enc.I64(int64(c.Started))
	enc.I64(int64(c.Completed))
	enc.I64(int64(c.Retries))
	enc.F64(c.remaining)
	enc.Bool(c.hung)
}

// Snapshot encodes the device: pipeline and ring contents (with each
// executing command's armed completion timer), DVFS state, governor window
// accounting, the hang latch, and the power rail history.
func (d *Device) Snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(d.freqIdx))
	enc.I64(int64(d.execWidth))
	enc.Len(len(d.running))
	for _, c := range d.running {
		c.Snapshot(enc)
		enc.U64(d.completion[c].Seq())
	}
	enc.Len(len(d.ring))
	for _, c := range d.ring {
		c.Snapshot(enc)
	}
	enc.I64(int64(d.lastAdv))
	enc.I64(int64(d.windowStart))
	enc.I64(int64(d.busyAccum))
	enc.Bool(d.hangNext)
	enc.U64(d.resets)
	d.rail.Snapshot(enc)
}
