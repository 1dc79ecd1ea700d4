package faults

import "psbox/internal/snapshot"

// Snapshot encodes the injector: its campaign randomness stream, the
// registered target names (each kept sorted), and the fault log.
func (in *Injector) Snapshot(enc *snapshot.Encoder) {
	in.rnd.Snapshot(enc)
	enc.Len(len(in.accelNames))
	for _, n := range in.accelNames {
		enc.Str(n)
	}
	enc.Len(len(in.nicNames))
	for _, n := range in.nicNames {
		enc.Str(n)
	}
	enc.Len(len(in.cpuNames))
	for _, n := range in.cpuNames {
		enc.Str(n)
	}
	enc.Bool(in.sandbox != nil)
	enc.Len(len(in.log))
	for _, e := range in.log {
		enc.I64(int64(e.At))
		enc.Str(string(e.Kind))
		enc.Str(e.Target)
		enc.Str(e.Detail)
	}
}
