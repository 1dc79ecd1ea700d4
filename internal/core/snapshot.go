package core

import (
	"sort"

	"psbox/internal/snapshot"
)

func (v *VirtualMeter) snapshot(enc *snapshot.Encoder) {
	enc.F64(float64(v.idleW))
	enc.I64(int64(v.period))
	enc.Bool(v.entered)
	enc.Bool(v.resident)
	enc.I64(int64(v.segStart))
	enc.Len(len(v.segs))
	for _, s := range v.segs {
		enc.I64(int64(s.start))
		enc.I64(int64(s.end))
		enc.Bool(s.resident)
	}
	enc.I64(int64(v.accIdx))
	enc.F64(float64(v.accJ))
	enc.F64(float64(v.accEstJ))
	enc.I64(int64(v.accGaps))
	enc.I64(int64(v.sampleCursor))
}

func (b *Box) snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(b.app.ID))
	enc.Len(len(b.hw))
	for _, h := range b.hw {
		enc.Str(string(h))
	}
	enc.Bool(b.entered)
	enc.U64(b.enters)
	enc.I64(int64(b.cpuState.FreqIdx))
	enc.Bool(b.cpuResident)
	enc.I64(int64(b.cpuResSince))
	enc.I64(int64(b.cpuResAccum))
	enc.U64(b.cpuGovArm.Seq())
	enc.I64(int64(b.cpuLastDemand))
	hws := make([]string, 0, len(b.vmeters))
	for h := range b.vmeters {
		hws = append(hws, string(h))
	}
	sort.Strings(hws)
	enc.Len(len(hws))
	for _, h := range hws {
		enc.Str(h)
		b.vmeters[HW(h)].snapshot(enc)
	}
}

// Snapshot encodes the psbox service: the shared CPU power state, the
// residency map (sorted by scope), the pending exclusivity-violation log,
// and every sandbox (sorted by app ID) with its virtual meters.
func (mgr *Manager) Snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(mgr.othersCPUState.FreqIdx))
	enc.Bool(mgr.cpuSaved)
	enc.Bool(mgr.DisableStateVirt)
	scopes := make([]string, 0, len(mgr.resident))
	for h := range mgr.resident {
		scopes = append(scopes, string(h))
	}
	sort.Strings(scopes)
	enc.Len(len(scopes))
	for _, h := range scopes {
		enc.Str(h)
		enc.I64(int64(mgr.resident[HW(h)]))
	}
	enc.Len(len(mgr.exclViolations))
	for _, v := range mgr.exclViolations {
		enc.Str(v)
	}
	ids := make([]int, 0, len(mgr.boxes))
	for id := range mgr.boxes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	enc.Len(len(ids))
	for _, id := range ids {
		mgr.boxes[id].snapshot(enc)
	}
}

// Snapshot encodes the invariant checker's incremental cursor and the
// per-box monotone-read watermarks (sorted by app ID).
func (c *Checker) Snapshot(enc *snapshot.Encoder) {
	enc.Str(c.battery)
	enc.I64(int64(c.lastCheck))
	ids := make([]int, 0, len(c.lastRead))
	for id := range c.lastRead {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	enc.Len(len(ids))
	for _, id := range ids {
		enc.I64(int64(id))
		enc.F64(float64(c.lastRead[id]))
	}
}
