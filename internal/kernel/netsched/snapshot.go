package netsched

import (
	"sort"

	"psbox/internal/hw/nic"
	"psbox/internal/snapshot"
)

func encodeNICState(enc *snapshot.Encoder, s nic.State) {
	enc.I64(int64(s.TxLevel))
	enc.U8(uint8(s.Mode))
	enc.I64(int64(s.TailRemaining))
}

func (s *Socket) snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(s.ID))
	enc.I64(int64(s.Owner))
	enc.I64(int64(s.queuedBytes))
	enc.Len(len(s.queue))
	for _, p := range s.queue {
		p.Snapshot(enc)
	}
}

func (a *appState) snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(a.id))
	enc.F64(a.vr)
	enc.Bool(a.boxed)
	encodeNICState(enc, a.state)
	a.vrail.Snapshot(enc)
	enc.U64(a.vtailArm.Seq())
	enc.U64(a.sentBytes)
	enc.U64(a.sentPackets)
	enc.I64(int64(a.inflight))
	enc.I64(int64(a.retrying))
	enc.I64(int64(a.latencySum))
	enc.U64(a.latencyN)
	enc.I64(int64(a.balloonBacklog))
}

// Snapshot encodes the packet scheduler: balloon phase machine, socket
// buffers (creation order), and every app's credit, counters and virtual
// NIC state machine (sorted by app ID).
func (d *Driver) Snapshot(enc *snapshot.Encoder) {
	enc.U64(d.settleArm.Seq())
	enc.U64(d.graceArm.Seq())
	enc.U8(uint8(d.phase))
	if d.activeBox == nil {
		enc.I64(-1)
	} else {
		enc.I64(int64(d.activeBox.id))
	}
	enc.Bool(d.closing)
	encodeNICState(enc, d.othersState)
	enc.I64(int64(d.balloonAt))
	enc.Bool(d.balloonBlocked)
	enc.F64(d.minVrFloor)
	enc.I64(int64(d.nextSockID))
	enc.U64(d.nextPktID)
	if d.curSock == nil {
		enc.I64(-1)
	} else {
		enc.I64(int64(d.curSock.ID))
	}
	enc.U64(d.linkRetries)
	enc.Len(len(d.socks))
	for _, s := range d.socks {
		s.snapshot(enc)
	}
	ids := make([]int, 0, len(d.apps))
	for id := range d.apps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	enc.Len(len(ids))
	for _, id := range ids {
		d.apps[id].snapshot(enc)
	}
}
