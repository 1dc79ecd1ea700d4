package netsched

import (
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

// Snapshot encodes the app's ledger fields, then its device fields.
func (a *appState) Snapshot(enc *snapshot.Encoder) {
	a.App.Snapshot(enc)
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
// NIC state machine (in app ID order).
func (d *Driver) Snapshot(enc *snapshot.Encoder) {
	enc.U64(d.settleArm.Seq())
	enc.U64(d.graceArm.Seq())
	enc.U8(uint8(d.phase))
	if d.activeBox == nil {
		enc.I64(-1)
	} else {
		enc.I64(int64(d.activeBox.ID))
	}
	enc.Bool(d.closing)
	encodeNICState(enc, d.othersState)
	enc.I64(int64(d.balloonAt))
	enc.Bool(d.balloonBlocked)
	enc.F64(d.led.Floor())
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
	apps := d.led.Apps()
	enc.Len(len(apps))
	for _, a := range apps {
		a.Snapshot(enc)
	}
}
