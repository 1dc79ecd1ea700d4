package psbox

import (
	"fmt"
	"sort"
	"strings"

	"psbox/internal/snapshot"
)

// registry assembles the system's checkpoint sections in a fixed order:
// the simulation engine first (clock, queue shape, randomness), then
// hardware bottom-up, kernel drivers, meter, psbox service, fault and
// accounting layers, and finally any extra snapshotters registered by the
// embedding program (e.g. a userspace daemon).
func (s *System) registry() *snapshot.Registry {
	reg := snapshot.NewRegistry()
	reg.Add("sim", s.Eng.Snapshot)
	reg.Add("hw/cpu", s.Kernel.CPU().Snapshot)
	for _, name := range s.Kernel.AccelNames() {
		reg.Add("hw/"+name, s.Kernel.Accel(name).Device().Snapshot)
	}
	if nd := s.Kernel.Net(); nd != nil {
		reg.Add("hw/wifi", nd.NIC().Snapshot)
	}
	if d := s.Kernel.Display(); d != nil {
		reg.Add("hw/display", d.Snapshot)
	}
	if g := s.Kernel.GPS(); g != nil {
		reg.Add("hw/gps", g.Snapshot)
	}
	if d := s.Kernel.DRAM(); d != nil {
		reg.Add("hw/dram", d.Snapshot)
	}
	reg.Add("kernel", s.Kernel.Snapshot)
	reg.Add("kernel/sched", s.Kernel.Scheduler().Snapshot)
	for _, name := range s.Kernel.AccelNames() {
		reg.Add("kernel/accel/"+name, s.Kernel.Accel(name).Snapshot)
	}
	if nd := s.Kernel.Net(); nd != nil {
		reg.Add("kernel/net", nd.Snapshot)
	}
	reg.Add("meter", s.Meter.Snapshot)
	reg.Add("core", s.Sandbox.Snapshot)
	if s.Invariants != nil {
		reg.Add("core/invariants", s.Invariants.Snapshot)
	}
	if s.Faults != nil {
		reg.Add("faults", s.Faults.Snapshot)
	}
	reg.Add("obs", s.Trace.Snapshot)
	if s.Profile.Enabled() {
		// The profiler's section exists only once a scenario has enabled
		// profiling, so the checkpoint wire format of pre-existing
		// scenarios is unchanged.
		reg.Add("obs/profile", s.Profile.Snapshot)
	}
	reg.Add("account", func(enc *snapshot.Encoder) {
		names := make([]string, 0, len(s.Recorders))
		for name := range s.Recorders {
			names = append(names, name)
		}
		sort.Strings(names)
		enc.Len(len(names))
		for _, name := range names {
			enc.Str(name)
			s.Recorders[name].Snapshot(enc)
		}
	})
	if s.sandboxes != nil {
		// The session manager's section exists only in scenarios that use
		// it, so the checkpoint wire format of pre-existing scenarios is
		// unchanged.
		reg.Add("sandbox", s.sandboxes.Snapshot)
	}
	for _, ex := range s.extraSnaps {
		reg.Add(ex.label, ex.snap)
	}
	return reg
}

type extraSnap struct {
	label string
	snap  func(*snapshot.Encoder)
}

// RegisterSnapshotter appends a scenario-level layer (e.g. a userspace
// daemon) to the system's checkpoint, after all built-in sections. snap
// encodes the layer's live state, usually its Snapshot method.
func (s *System) RegisterSnapshotter(label string, snap func(*snapshot.Encoder)) {
	for _, ex := range s.extraSnaps {
		if ex.label == label {
			panic(fmt.Sprintf("psbox: snapshotter %q already registered", label))
		}
	}
	s.extraSnaps = append(s.extraSnaps, extraSnap{label: label, snap: snap})
}

// Snapshot captures the whole simulated stack as one versioned,
// CRC-protected checkpoint. Byte-identical across identically-constructed,
// identically-driven systems. Its buffer is sized from the previous
// checkpoint's length, which is all the system keeps of it.
func (s *System) Snapshot() []byte {
	ckpt := s.registry().CheckpointSized(s.ckptLen)
	s.ckptLen = len(ckpt)
	return ckpt
}

// Restore verifies a checkpoint against this system under the replay-twin
// contract: the system must have been rebuilt from the same scenario and
// deterministically replayed to the checkpoint instant. The registry
// re-encodes every layer's live state and byte-compares it against the
// checkpoint; the first divergence is reported with its section and
// offset. State is never overwritten — a restore that silently patched
// state would mask replay divergence instead of exposing it.
func (s *System) Restore(data []byte) error { return s.registry().Restore(data) }

// SetAuditEvery arms a recurring mid-run invariant audit every period of
// simulated time, in addition to the audit System.Run performs at each
// horizon. The periodic event is scheduled immediately (and re-arms
// itself), so two systems built from the same scenario schedule identical
// event sequences whether or not a run is later cut short by a crash. A
// violation panics at the offending instant rather than at the end of the
// run. Calling it again replaces the previous cadence; period 0 disables.
func (s *System) SetAuditEvery(period Duration) {
	if s.auditStop != nil {
		s.auditStop()
		s.auditStop = nil
	}
	if period <= 0 {
		return
	}
	s.auditStop = s.Eng.Every(period, func(Time) {
		s.audits++
		if s.Invariants == nil {
			return
		}
		if v := s.Invariants.Check(); len(v) > 0 {
			panic("psbox: invariant violation (periodic audit):\n  " + strings.Join(v, "\n  "))
		}
	})
}

// Audits reports how many periodic invariant audits have fired.
func (s *System) Audits() uint64 { return s.audits }
