package experiments

import (
	"fmt"
	"math"
	"strings"

	psbox "psbox"
	"psbox/internal/account"
	"psbox/internal/sim"
)

// Fig6Cell is one co-running measurement: the victim's energy as reported
// by one approach, and its deviation from that approach's running-alone
// reference.
type Fig6Cell struct {
	With   string
	MJ     float64
	DevPct float64
}

// Fig6Row is one hardware-scope row of the Fig. 6 grid.
type Fig6Row struct {
	Scope string
	App   string

	PSBoxAloneMJ    float64
	PSBox           []Fig6Cell
	BaselineAloneMJ float64
	Baseline        []Fig6Cell

	MaxPSBoxDevPct    float64
	MaxBaselineDevPct float64
}

// Fig6Result is the full grid.
type Fig6Result struct {
	Rows []Fig6Row
}

// fig6Scenario is one row: the victim's scene alone, and the two
// co-runner sets it is measured beside.
type fig6Scenario struct {
	scene
	coRunners [][]string
}

func fig6Scenarios() []fig6Scenario {
	return []fig6Scenario{
		{scene{platform: psbox.NewAM57, victim: "calib3d", scope: psbox.HWCPU, span: 3 * sim.Second},
			[][]string{{"bodytrack"}, {"dedup"}}},
		{scene{platform: psbox.NewAM57, victim: "dgemm", saturate: true, scope: psbox.HWDSP, span: 5 * sim.Second},
			[][]string{{"sgemm"}, {"monte", "sgemm"}}},
		{scene{platform: psbox.NewAM57, victim: "browser", scope: psbox.HWGPU, span: 3 * sim.Second},
			[][]string{{"magic"}, {"triangle"}}},
		{scene{platform: psbox.NewBeagleBone, victim: "browserw", scope: psbox.HWWiFi, span: 4 * sim.Second},
			[][]string{{"scp"}, {"wget"}}},
	}
}

// Fig6 runs the whole grid: for each scope, the victim alone and with two
// different co-runner sets, under psbox and under the baseline accounting.
func Fig6(seed uint64) Fig6Result {
	var out Fig6Result
	for _, sc := range fig6Scenarios() {
		row := Fig6Row{Scope: string(sc.scope), App: sc.victim}

		runPSBox := func() float64 {
			_, _, box := sc.run(seed, true)
			return mj(box.Read())
		}
		runBaseline := func() float64 {
			sys, victim, _ := sc.run(seed, false)
			acc := sys.Accountant(string(sc.scope), account.PolicyUsageShare)
			return mj(acc.AppEnergy(victim.ID, 0, sys.Now()))
		}

		row.PSBoxAloneMJ = runPSBox()
		row.BaselineAloneMJ = runBaseline()
		for _, co := range sc.coRunners {
			sc.co = co
			label := strings.Join(co, "+")
			pm := runPSBox()
			bm := runBaseline()
			pc := Fig6Cell{With: label, MJ: pm, DevPct: pct(pm, row.PSBoxAloneMJ)}
			bc := Fig6Cell{With: label, MJ: bm, DevPct: pct(bm, row.BaselineAloneMJ)}
			row.PSBox = append(row.PSBox, pc)
			row.Baseline = append(row.Baseline, bc)
			if d := math.Abs(pc.DevPct); d > row.MaxPSBoxDevPct {
				row.MaxPSBoxDevPct = d
			}
			if d := math.Abs(bc.DevPct); d > row.MaxBaselineDevPct {
				row.MaxBaselineDevPct = d
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func (r Fig6Result) String() string {
	var b strings.Builder
	b.WriteString(header("Fig. 6 — elimination of power entanglement (victim energy, mJ)"))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n[%s] %s, alone: psbox %.1f mJ | baseline %.1f mJ\n",
			strings.ToUpper(row.Scope), row.App, row.PSBoxAloneMJ, row.BaselineAloneMJ)
		for i := range row.PSBox {
			fmt.Fprintf(&b, "  w/ %-14s psbox %8.1f mJ (%+6.1f%%)   baseline %8.1f mJ (%+6.1f%%)\n",
				row.PSBox[i].With, row.PSBox[i].MJ, row.PSBox[i].DevPct,
				row.Baseline[i].MJ, row.Baseline[i].DevPct)
		}
		fmt.Fprintf(&b, "  max |dev|: psbox %.1f%% vs baseline %.1f%%\n",
			row.MaxPSBoxDevPct, row.MaxBaselineDevPct)
	}
	b.WriteString("\n→ psbox keeps the app's observation nearly invariant to co-runners; the baseline's shares swing widely\n")
	return b.String()
}
