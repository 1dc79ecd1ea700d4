package kernel

import (
	"sort"

	"psbox/internal/snapshot"
)

func (t *Task) snapshot(enc *snapshot.Encoder) {
	enc.Str(t.Name)
	enc.I64(int64(t.st.ID))
	enc.F64(t.remaining)
	enc.F64(t.memGBs)
	enc.I64(int64(t.core))
	enc.I64(int64(t.runStart))
	enc.F64(t.runRate)
	enc.U64(t.compArm.Seq())
	enc.Str(t.waitDev)
	enc.Bool(t.waitNet)
	enc.I64(int64(t.waitMax))
	enc.U64(t.sleepArm.Seq())
	enc.Bool(t.dead)
	t.env.Rand.Snapshot(enc)
}

func (a *App) snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(a.ID))
	enc.Str(a.Name)
	names := make([]string, 0, len(a.counters))
	for name := range a.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	enc.Len(len(names))
	for _, name := range names {
		enc.Str(name)
		enc.F64(a.counters[name])
	}
	a.rand.Snapshot(enc)
	enc.I64(int64(a.demandCount))
	enc.I64(int64(a.demandSince))
	enc.I64(int64(a.demandAccum))
	enc.Len(len(a.sockets))
	for _, s := range a.sockets {
		enc.I64(int64(s.ID))
	}
	enc.Len(len(a.tasks))
	for _, t := range a.tasks {
		t.snapshot(enc)
	}
}

// Snapshot encodes the kernel: its randomness stream, the attached
// accelerator names, every app (creation order) with its tasks, and the
// per-core running task identity.
func (k *Kernel) Snapshot(enc *snapshot.Encoder) {
	k.rand.Snapshot(enc)
	enc.Len(len(k.accelKeys))
	for _, name := range k.accelKeys {
		enc.Str(name)
	}
	enc.I64(int64(k.nextApp))
	enc.Len(len(k.appList))
	for _, a := range k.appList {
		a.snapshot(enc)
	}
	enc.Len(len(k.running))
	for _, t := range k.running {
		if t == nil {
			enc.I64(-1)
		} else {
			enc.I64(int64(t.st.ID))
		}
	}
}
