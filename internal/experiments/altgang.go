package experiments

import (
	"fmt"
	"math"
	"strings"

	psbox "psbox"
	"psbox/internal/kernel/sched"
	"psbox/internal/sim"
	"psbox/internal/workload"
)

// AltGangResult compares the two spatial-balloon enforcement mechanisms of
// §7 "Alternative OS mechanisms": demand-driven coscheduling with
// scheduling loans (the paper's design) against a fixed gang reservation
// (the real-time-kernel alternative).
type AltGangResult struct {
	// Co-runner throughput (KB/s) under each mechanism, with the sandboxed
	// app mostly idle — the work-conservation contrast.
	OtherLoansKBs float64
	OtherGangKBs  float64

	// Sandboxed app throughput under each mechanism.
	BoxedLoansKBs float64
	BoxedGangKBs  float64

	// Residency cadence jitter (coefficient of variation of window start
	// gaps) — the predictability contrast.
	LoanJitterCV float64
	GangJitterCV float64
}

// AltGang runs a lightly loaded sandboxed app against a saturating
// co-runner under both mechanisms.
func AltGang(seed uint64) AltGangResult {
	run := func(gang bool) (boxed, other float64, jitterCV float64) {
		sys := psbox.NewAM57(seed)
		victim := workload.Install(sys.Kernel, workload.Calib3D(2, false)) // paced: mostly idle
		coRun := workload.Install(sys.Kernel, workload.Calib3D(2, true))   // saturating
		var opens []sim.Time
		sys.Kernel.OnResident("cpu", func(app int, r bool) {
			if app == victim.ID && r {
				opens = append(opens, sys.Now())
			}
		})
		if gang {
			if _, err := sys.Kernel.Scheduler().ActivateGang(victim.ID, sched.GangConfig{
				Period: 20 * sim.Millisecond,
				Slot:   6 * sim.Millisecond,
			}); err != nil {
				panic(err)
			}
		} else {
			sys.Kernel.Scheduler().ActivateGroup(victim.ID)
		}
		span := 3 * sim.Second
		sys.Run(span)
		boxed = victim.Counter("kb") / span.Seconds()
		other = coRun.Counter("kb") / span.Seconds()
		// Window cadence jitter.
		if len(opens) > 2 {
			var gaps []float64
			for i := 1; i < len(opens); i++ {
				gaps = append(gaps, opens[i].Sub(opens[i-1]).Seconds())
			}
			var mean float64
			for _, g := range gaps {
				mean += g
			}
			mean /= float64(len(gaps))
			var variance float64
			for _, g := range gaps {
				variance += (g - mean) * (g - mean)
			}
			variance /= float64(len(gaps))
			jitterCV = math.Sqrt(variance) / mean
		}
		return boxed, other, jitterCV
	}
	r := AltGangResult{}
	r.BoxedLoansKBs, r.OtherLoansKBs, r.LoanJitterCV = run(false)
	r.BoxedGangKBs, r.OtherGangKBs, r.GangJitterCV = run(true)
	return r
}

func (r AltGangResult) String() string {
	var b strings.Builder
	b.WriteString(header("§7 alternative — loan coscheduling vs gang reservation"))
	fmt.Fprintf(&b, "%-22s %14s %14s %14s\n", "mechanism", "boxed KB/s", "co-runner KB/s", "window jitter")
	fmt.Fprintf(&b, "%-22s %14.1f %14.1f %13.2f\n", "coscheduling + loans",
		r.BoxedLoansKBs, r.OtherLoansKBs, r.LoanJitterCV)
	fmt.Fprintf(&b, "%-22s %14.1f %14.1f %13.2f\n", "gang reservation",
		r.BoxedGangKBs, r.OtherGangKBs, r.GangJitterCV)
	b.WriteString("→ loans are work-conserving (idle balloon time returns to others); the gang's\n")
	b.WriteString("  windows are metronomic but its reserved slots are wasted when the app idles\n")
	return b.String()
}
