package fleet

import (
	"fmt"
	"sort"
	"strings"
)

// Merged is the fleet-level rollup over completed shards. Quarantined
// shards are excluded and surfaced as reduced coverage — the JetsonLEAP
// discipline of bounded-error measurement under partial data: an absent
// shard makes the totals explicitly partial, it never silently inflates
// the survivors' shares.
type Merged struct {
	Completed   int
	Quarantined []int // shard IDs, ascending
	Coverage    float64

	BatteryJ    float64
	Blame       []AppBlame // summed over completed shards, sorted by name
	Boxes       []MergedBox
	Degraded    uint64 // profile windows overlapping meter dropouts
	Faults      int
	Audits      uint64
	TraceEvents uint64
}

// MergedBox aggregates one app's sandbox reads across completed shards.
type MergedBox struct {
	App      string
	DirectJ  float64
	EstJ     float64
	Gaps     int
	Degraded int // shards in which this box went degraded
}

// Merge folds the per-shard outcomes into the fleet rollup. Iteration is
// by ascending shard ID and sorted app name throughout, so the result —
// including every float sum — is independent of completion order and
// worker count.
func (r *Result) Merge() *Merged {
	m := &Merged{}
	blame := make(map[string]float64)
	boxes := make(map[string]*MergedBox)
	for _, sh := range r.Shards {
		if sh.Quarantined || sh.Report == nil {
			m.Quarantined = append(m.Quarantined, sh.Shard)
			continue
		}
		m.Completed++
		rep := sh.Report
		m.BatteryJ += rep.BatteryJ
		m.Degraded += rep.ProfileDegraded
		m.Faults += rep.Faults
		m.Audits += rep.Audits
		m.TraceEvents += rep.TraceEvents
		for _, bl := range rep.Blame {
			blame[bl.App] += bl.J
		}
		for _, bx := range rep.Boxes {
			mb := boxes[bx.App]
			if mb == nil {
				mb = &MergedBox{App: bx.App}
				boxes[bx.App] = mb
			}
			mb.DirectJ += bx.DirectJ
			mb.EstJ += bx.EstJ
			mb.Gaps += bx.Gaps
			if bx.Degraded {
				mb.Degraded++
			}
		}
	}
	if len(r.Shards) > 0 {
		m.Coverage = float64(m.Completed) / float64(len(r.Shards))
	}
	names := make([]string, 0, len(blame))
	for name := range blame {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.Blame = append(m.Blame, AppBlame{App: name, J: blame[name]})
	}
	names = names[:0]
	for name := range boxes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.Boxes = append(m.Boxes, *boxes[name])
	}
	return m
}

// Format renders the canonical merged fleet report. It is deterministic
// for a fixed (seed, shards, horizon, quanta, retries, chaos plan): it
// contains only simulated quantities and typed failure records — never
// worker count, wall-clock time, or completion order — so byte comparison
// across worker counts IS the parallel-determinism check.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "psbox-fleet seed=%d shards=%d horizon=%v quanta=%d ckpt-every=%d retries=%d\n",
		r.Cfg.Seed, r.Cfg.Shards, r.Cfg.Horizon, r.Cfg.Quanta, r.Cfg.CheckpointEvery, r.Cfg.MaxRetries)
	b.WriteString(r.Cfg.Chaos.Describe())

	fmt.Fprintln(&b, "-- shards --")
	for _, sh := range r.Shards {
		switch {
		case sh.Quarantined:
			fmt.Fprintf(&b, "shard %d seed=%d QUARANTINED attempts=%d\n", sh.Shard, sh.Seed, sh.Attempts)
		case sh.ResumedFrom > 0:
			fmt.Fprintf(&b, "shard %d seed=%d ok attempts=%d resumed@%v\n", sh.Shard, sh.Seed, sh.Attempts, sh.ResumedFrom)
		default:
			fmt.Fprintf(&b, "shard %d seed=%d ok attempts=%d\n", sh.Shard, sh.Seed, sh.Attempts)
		}
	}

	fmt.Fprintln(&b, "-- failures --")
	any := false
	for _, sh := range r.Shards {
		for _, f := range sh.Failures {
			fmt.Fprintf(&b, "%s\n", f)
			any = true
		}
	}
	if !any {
		fmt.Fprintln(&b, "(none)")
	}

	m := r.Merge()
	fmt.Fprintf(&b, "-- rollup: %d/%d shards completed, coverage %.6f --\n",
		m.Completed, len(r.Shards), m.Coverage)
	if m.Completed > 0 {
		fmt.Fprintf(&b, "battery total=%.9f J mean-per-shard=%.9f J\n",
			m.BatteryJ, m.BatteryJ/float64(m.Completed))
		for _, bl := range m.Blame {
			fmt.Fprintf(&b, "blame %-8s %.9f J\n", bl.App, bl.J)
		}
		for _, bx := range m.Boxes {
			fmt.Fprintf(&b, "box   %-8s direct=%.9f J estimated=%.9f J gaps=%d degraded=%d/%d shards\n",
				bx.App, bx.DirectJ, bx.EstJ, bx.Gaps, bx.Degraded, m.Completed)
		}
		fmt.Fprintf(&b, "degraded-windows=%d faults=%d audits=%d trace-events=%d\n",
			m.Degraded, m.Faults, m.Audits, m.TraceEvents)
	}
	if len(m.Quarantined) > 0 {
		ids := make([]string, len(m.Quarantined))
		for i, id := range m.Quarantined {
			ids[i] = fmt.Sprint(id)
		}
		fmt.Fprintf(&b, "quarantined: [%s] — excluded from every total above; their energy is missing coverage, not renormalized blame\n",
			strings.Join(ids, " "))
	}
	return b.String()
}
