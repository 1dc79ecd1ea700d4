package accel

import (
	"sort"

	"psbox/internal/snapshot"
)

func (a *appState) snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(a.id))
	enc.F64(a.vr)
	enc.Bool(a.boxed)
	enc.I64(int64(a.state.FreqIdx))
	enc.U64(a.completed)
	enc.F64(a.workDone)
	enc.I64(int64(a.latencySum))
	enc.U64(a.latencyN)
	enc.I64(int64(a.inflight))
	enc.Len(len(a.pending))
	for _, c := range a.pending {
		c.Snapshot(enc)
	}
}

// Snapshot encodes the driver: balloon phase machine, credit floor,
// watchdog state, and every app's credit, backlog and virtual power
// state (sorted by app ID).
func (d *Driver) Snapshot(enc *snapshot.Encoder) {
	enc.U8(uint8(d.phase))
	if d.activeBox == nil {
		enc.I64(-1)
	} else {
		enc.I64(int64(d.activeBox.id))
	}
	enc.I64(int64(d.othersState.FreqIdx))
	enc.I64(int64(d.lastBill))
	enc.U64(d.graceArm.Seq())
	enc.F64(d.minVrFloor)
	enc.U64(d.nextCmdID)
	enc.Bool(d.wd != nil)
	if d.wd != nil {
		enc.I64(int64(d.wd.Timeout))
		enc.I64(int64(d.wd.BackoffBase))
		enc.I64(int64(d.wd.BackoffCap))
		enc.I64(int64(d.wd.MaxRetries))
	}
	enc.U64(d.wdArm.Seq())
	enc.U64(d.wdResets)
	enc.U64(d.wdResubmits)
	enc.U64(d.wdDropped)
	enc.Bool(d.BillDrainIdleOnly)
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
