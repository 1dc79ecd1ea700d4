package nic

import "psbox/internal/snapshot"

// Snapshot encodes one frame's lifecycle state.
func (p *Packet) Snapshot(enc *snapshot.Encoder) {
	enc.U64(p.ID)
	enc.I64(int64(p.Owner))
	enc.I64(int64(p.Bytes))
	enc.I64(int64(p.Enqueued))
	enc.I64(int64(p.Dispatched))
	enc.I64(int64(p.Completed))
	enc.I64(int64(p.Retries))
}

// Snapshot encodes the NIC: PSM/active/tail mode, the frame on the air,
// the armed tail and transmission timers, link-flap state, and the power
// rail history.
func (n *NIC) Snapshot(enc *snapshot.Encoder) {
	enc.U8(uint8(n.mode))
	enc.I64(int64(n.txLevel))
	if n.inflight == nil {
		enc.Bool(false)
	} else {
		enc.Bool(true)
		n.inflight.Snapshot(enc)
	}
	enc.U64(n.tailArm.Seq())
	enc.I64(int64(n.tailAt))
	enc.U64(n.txArm.Seq())
	enc.Bool(n.linkDown)
	enc.U64(n.flaps)
	n.rail.Snapshot(enc)
}
