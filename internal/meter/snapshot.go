package meter

import (
	"sort"

	"psbox/internal/snapshot"
)

// Snapshot encodes the DAQ: sampling period, every attached rail's power
// history (stable name order), and the injected dropout windows (sorted
// by rail name).
func (m *Meter) Snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(DefaultPeriod))
	enc.Len(len(m.names))
	for _, name := range m.names {
		m.rails[name].Snapshot(enc)
	}
	dropNames := make([]string, 0, len(m.drops))
	for name := range m.drops {
		dropNames = append(dropNames, name)
	}
	sort.Strings(dropNames)
	enc.Len(len(dropNames))
	for _, name := range dropNames {
		enc.Str(name)
		ws := m.drops[name]
		enc.Len(len(ws))
		for _, w := range ws {
			enc.I64(int64(w.From))
			enc.I64(int64(w.To))
		}
	}
}
