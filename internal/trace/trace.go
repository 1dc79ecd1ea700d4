// Package trace renders simulation activity for humans: ASCII power plots
// (the Fig. 6/7/9 curves) and ASCII Gantt charts of resource multiplexing
// (the Fig. 7 schedules), plus CSV export for external plotting.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

// Series is one named power trace.
type Series struct {
	Name    string
	Samples []power.Sample
}

// Plot renders series as an ASCII chart of the given size. Multiple series
// are overlaid with distinct glyphs.
func Plot(series []Series, from, to sim.Time, width, height int) string {
	if width < 10 {
		width = 10
	}
	if height < 4 {
		height = 4
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#'}
	span := to.Sub(from)
	if span <= 0 || len(series) == 0 {
		return "(empty plot)\n"
	}
	var maxW float64
	for _, s := range series {
		for _, p := range s.Samples {
			if p.W > maxW {
				maxW = p.W
			}
		}
	}
	if maxW <= 0 {
		maxW = 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for _, p := range s.Samples {
			if p.T < from || p.T >= to {
				continue
			}
			x := int(int64(p.T.Sub(from)) * int64(width) / int64(span))
			y := height - 1 - int(p.W/maxW*float64(height-1))
			if x >= 0 && x < width && y >= 0 && y < height {
				grid[y][x] = g
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%6.2fW ┤\n", maxW)
	for _, row := range grid {
		b.WriteString("        │")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("        └" + strings.Repeat("─", width) + "\n")
	fmt.Fprintf(&b, "        %v%s%v\n", from, strings.Repeat(" ", max(1, width-14)), to)
	for si, s := range series {
		fmt.Fprintf(&b, "        %c %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}

// DownsampleRail converts a rail's exact breakpoints into a fixed-step
// average-power series, suitable for plotting.
func DownsampleRail(r *power.Rail, from, to sim.Time, step sim.Duration) []power.Sample {
	var out []power.Sample
	for t := from; t < to; t = t.Add(step) {
		end := t.Add(step)
		if end > to {
			end = to
		}
		e := r.EnergyBetween(t, end)
		out = append(out, power.Sample{T: t, W: e / end.Sub(t).Seconds()})
	}
	return out
}

// DownsampleSamples re-buckets a sample series into step-sized averages.
func DownsampleSamples(in []power.Sample, from, to sim.Time, step sim.Duration) []power.Sample {
	n := int(to.Sub(from) / step)
	if n <= 0 {
		return nil
	}
	sum := make([]float64, n)
	cnt := make([]int, n)
	for _, s := range in {
		if s.T < from || s.T >= to {
			continue
		}
		b := int(s.T.Sub(from) / step)
		if b >= 0 && b < n {
			sum[b] += s.W
			cnt[b]++
		}
	}
	out := make([]power.Sample, n)
	for i := range out {
		w := 0.0
		if cnt[i] > 0 {
			w = sum[i] / float64(cnt[i])
		}
		out[i] = power.Sample{T: from.Add(sim.Duration(i) * step), W: w}
	}
	return out
}

// Span is one occupancy interval on a Gantt lane.
type Span struct {
	Label      string
	Start, End sim.Time
}

// Gantt accumulates per-lane occupancy spans (e.g. per CPU core, or per
// accelerator slot).
type Gantt struct {
	lanes map[string][]Span
	order []string
}

// NewGantt builds an empty chart.
func NewGantt() *Gantt { return &Gantt{lanes: make(map[string][]Span)} }

// Add records one span on a lane.
func (g *Gantt) Add(lane, label string, start, end sim.Time) {
	if end <= start {
		return
	}
	if _, ok := g.lanes[lane]; !ok {
		g.order = append(g.order, lane)
	}
	g.lanes[lane] = append(g.lanes[lane], Span{Label: label, Start: start, End: end})
}

// Lanes lists lanes in insertion order.
func (g *Gantt) Lanes() []string { return g.order }

// Spans returns one lane's spans.
func (g *Gantt) Spans(lane string) []Span { return g.lanes[lane] }

// Render draws the chart; each distinct label gets a letter, idle is '.'.
func (g *Gantt) Render(from, to sim.Time, width int) string {
	if width < 10 {
		width = 10
	}
	span := to.Sub(from)
	if span <= 0 {
		return "(empty gantt)\n"
	}
	// Stable label→glyph assignment.
	labelSet := map[string]bool{}
	for _, lane := range g.order {
		for _, s := range g.lanes[lane] {
			labelSet[s.Label] = true
		}
	}
	labels := make([]string, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	glyph := map[string]byte{}
	for i, l := range labels {
		glyph[l] = byte('A' + i%26)
	}
	var b strings.Builder
	nameW := 0
	for _, lane := range g.order {
		if len(lane) > nameW {
			nameW = len(lane)
		}
	}
	for _, lane := range g.order {
		row := []byte(strings.Repeat(".", width))
		for _, s := range g.lanes[lane] {
			lo, hi := s.Start, s.End
			if lo < from {
				lo = from
			}
			if hi > to {
				hi = to
			}
			if hi <= lo {
				continue
			}
			x0 := int(int64(lo.Sub(from)) * int64(width) / int64(span))
			x1 := int(int64(hi.Sub(from)) * int64(width) / int64(span))
			if x1 == x0 {
				x1 = x0 + 1
			}
			for x := x0; x < x1 && x < width; x++ {
				row[x] = glyph[s.Label]
			}
		}
		fmt.Fprintf(&b, "%-*s │%s│\n", nameW, lane, row)
	}
	fmt.Fprintf(&b, "%-*s  %v → %v\n", nameW, "", from, to)
	for _, l := range labels {
		fmt.Fprintf(&b, "%-*s  %c = %s\n", nameW, "", glyph[l], l)
	}
	return b.String()
}

// WriteCSV emits series as a long-format CSV (series,time_s,watts).
func WriteCSV(w io.Writer, series []Series) error {
	if _, err := fmt.Fprintln(w, "series,time_s,watts"); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Samples {
			if _, err := fmt.Fprintf(w, "%s,%.9f,%.6f\n", s.Name, p.T.Seconds(), p.W); err != nil {
				return err
			}
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
