package accel

import "psbox/internal/snapshot"

// Snapshot encodes the app's ledger fields, then its device fields.
func (a *appState) Snapshot(enc *snapshot.Encoder) {
	a.App.Snapshot(enc)
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
// state (in app ID order). An armed watchdog's constants keep their slots
// so the section's wire format is stable.
func (d *Driver) Snapshot(enc *snapshot.Encoder) {
	enc.U8(uint8(d.phase))
	if d.activeBox == nil {
		enc.I64(-1)
	} else {
		enc.I64(int64(d.activeBox.ID))
	}
	enc.I64(int64(d.othersState.FreqIdx))
	enc.I64(int64(d.lastBill))
	enc.U64(d.graceArm.Seq())
	enc.F64(d.led.Floor())
	enc.U64(d.nextCmdID)
	enc.Bool(d.wd)
	if d.wd {
		enc.I64(int64(wdTimeout))
		enc.I64(int64(wdBackoffBase))
		enc.I64(int64(wdBackoffCap))
		enc.I64(wdMaxRetries)
	}
	enc.U64(d.wdArm.Seq())
	enc.U64(d.wdResets)
	enc.U64(d.wdResubmits)
	enc.U64(d.wdDropped)
	enc.Bool(d.BillDrainIdleOnly)
	apps := d.led.Apps()
	enc.Len(len(apps))
	for _, a := range apps {
		a.Snapshot(enc)
	}
}
