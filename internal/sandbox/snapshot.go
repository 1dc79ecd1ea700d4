package sandbox

import (
	"sort"

	"psbox/internal/snapshot"
)

func (s *Session) snapshot(enc *snapshot.Encoder) {
	enc.Str(s.spec.Name)
	enc.F64(s.spec.BudgetW)
	enc.Len(len(s.spec.Scopes))
	for _, h := range s.spec.Scopes {
		enc.Str(string(h))
	}
	enc.I64(int64(s.spec.MaxBacklog))
	enc.Bool(s.spec.PreserveData)
	enc.U8(uint8(s.state))
	if s.app == nil {
		enc.I64(-1)
	} else {
		enc.I64(int64(s.app.ID))
	}
	enc.Bool(s.box != nil)
	enc.I64(int64(s.violations))
	enc.Bool(s.state == StateThrottled)
	keys := make([]string, 0, len(s.preserved))
	for k := range s.preserved {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc.Len(len(keys))
	for _, k := range keys {
		enc.Str(k)
		enc.F64(s.preserved[k])
	}
	enc.Len(len(s.failures))
	for _, at := range s.failures {
		enc.I64(int64(at))
	}
	enc.U64(s.restartArm.Seq())
	enc.U64(s.gateArm.Seq())
	enc.I64(int64(s.spanStart))
	enc.U64(s.throttles)
	enc.U64(s.kills)
	enc.U64(s.restarts)
	enc.F64(s.peakJ)
}

// Snapshot encodes the manager: the capacity and the enforcement ladder,
// the aggregate stats, and every session in admission order. The ladder
// is constant; it keeps its slots so the section's wire format is stable.
func (m *Manager) Snapshot(enc *snapshot.Encoder) {
	enc.F64(m.cfg.CapacityW)
	enc.I64(int64(window))
	enc.I64(throttleAfter)
	enc.I64(killAfter)
	enc.F64(throttleDuty)
	enc.I64(int64(backoffBase))
	enc.I64(int64(backoffCap))
	enc.I64(breakerN)
	enc.I64(int64(breakerWindow))
	enc.Bool(m.started)
	enc.F64(m.reserved)
	enc.I64(int64(m.lastWindow))
	enc.U64(m.monitorArm.Seq())
	enc.U64(m.stats.Admitted)
	enc.U64(m.stats.Rejected)
	enc.U64(m.stats.Throttles)
	enc.U64(m.stats.Kills)
	enc.U64(m.stats.Restarts)
	enc.U64(m.stats.Quarantined)
	enc.U64(m.stats.Retired)
	enc.F64(m.stats.ReclaimedJ)
	enc.Len(len(m.sessions))
	for _, s := range m.sessions {
		s.snapshot(enc)
	}
}
