package trace

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

func TestPlotRenders(t *testing.T) {
	s := []Series{{
		Name: "cpu",
		Samples: []power.Sample{
			{T: 0, W: 1}, {T: 100, W: 2}, {T: 200, W: 0.5},
		},
	}}
	out := Plot(s, 0, 300, 30, 6)
	if !strings.Contains(out, "cpu") || !strings.Contains(out, "*") {
		t.Fatalf("plot missing content:\n%s", out)
	}
	if Plot(nil, 0, 0, 10, 4) != "(empty plot)\n" {
		t.Fatal("empty plot handling")
	}
}

// The legend must map EVERY series name to its plotting glyph, cycling
// through the glyph set when there are more series than glyphs.
func TestPlotLegendMapsAllSeries(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	var series []Series
	for i, n := range names {
		series = append(series, Series{Name: n, Samples: []power.Sample{{T: sim.Time(i * 10), W: float64(i + 1)}}})
	}
	out := Plot(series, 0, 100, 30, 6)
	glyphs := []byte{'*', 'o', '+', 'x', '#'}
	for i, n := range names {
		want := "        " + string(glyphs[i%len(glyphs)]) + " " + n + "\n"
		if !strings.Contains(out, want) {
			t.Errorf("legend line %q missing:\n%s", want, out)
		}
	}
	// The sixth series wraps back to '*'.
	if !strings.Contains(out, "        * zeta\n") {
		t.Errorf("glyph wrap-around missing:\n%s", out)
	}
}

func TestDownsampleRail(t *testing.T) {
	e := sim.NewEngine()
	r := power.NewRail(e, "x", 1)
	e.At(sim.Time(50*sim.Millisecond), func(sim.Time) { r.Set(3) })
	e.Run(sim.Time(100 * sim.Millisecond))
	s := DownsampleRail(r, 0, sim.Time(100*sim.Millisecond), 25*sim.Millisecond)
	if len(s) != 4 {
		t.Fatalf("buckets = %d", len(s))
	}
	if s[0].W != 1 || s[3].W < 2.999 || s[3].W > 3.001 {
		t.Fatalf("bucket values: %+v", s)
	}
}

func TestDownsampleSamples(t *testing.T) {
	in := []power.Sample{
		{T: 0, W: 1}, {T: 10, W: 3}, {T: 30, W: 5},
	}
	out := DownsampleSamples(in, 0, 40, 20)
	if len(out) != 2 {
		t.Fatalf("buckets = %d", len(out))
	}
	if out[0].W != 2 || out[1].W != 5 {
		t.Fatalf("bucket averages: %+v", out)
	}
}

func TestGanttRender(t *testing.T) {
	g := NewGantt()
	g.Add("core0", "calib3d", 0, 50)
	g.Add("core0", "bodytrack", 50, 100)
	g.Add("core1", "calib3d", 0, 100)
	g.Add("core1", "nothing", 10, 10) // dropped
	out := g.Render(0, 100, 40)
	if !strings.Contains(out, "core0") || !strings.Contains(out, "core1") {
		t.Fatalf("gantt missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "= calib3d") || !strings.Contains(out, "= bodytrack") {
		t.Fatalf("gantt missing legend:\n%s", out)
	}
	if len(g.Lanes()) != 2 || len(g.Spans("core0")) != 2 {
		t.Fatal("span bookkeeping wrong")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []Series{{Name: "cpu", Samples: []power.Sample{{T: sim.Time(sim.Second), W: 1.5}}}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "series,time_s,watts\n") || !strings.Contains(out, "cpu,1.000000000,1.500000") {
		t.Fatalf("csv:\n%s", out)
	}
}

// buildCSV renders a fixed two-series trace through the exporter; the
// golden test pins its exact bytes.
func buildCSV(t *testing.T) string {
	t.Helper()
	e := sim.NewEngine()
	r := power.NewRail(e, "cpu", 1)
	e.At(sim.Time(25*sim.Millisecond), func(sim.Time) { r.Set(2.5) })
	e.At(sim.Time(60*sim.Millisecond), func(sim.Time) { r.Set(0.75) })
	e.Run(sim.Time(100 * sim.Millisecond))
	raw := []power.Sample{
		{T: sim.Time(5 * sim.Millisecond), W: 1.25},
		{T: sim.Time(15 * sim.Millisecond), W: 1.75},
		{T: sim.Time(35 * sim.Millisecond), W: 2.5},
		{T: sim.Time(75 * sim.Millisecond), W: 0.5},
	}
	series := []Series{
		{Name: "cpu_rail", Samples: DownsampleRail(r, 0, sim.Time(100*sim.Millisecond), 20*sim.Millisecond)},
		{Name: "victim_psbox", Samples: DownsampleSamples(raw, 0, sim.Time(100*sim.Millisecond), 20*sim.Millisecond)},
	}
	var b strings.Builder
	if err := WriteCSV(&b, series); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWriteCSVGolden byte-compares the CSV exporter against its committed
// golden. Regenerate with UPDATE_GOLDEN=1 go test ./internal/trace/.
func TestWriteCSVGolden(t *testing.T) {
	got := buildCSV(t)
	path := filepath.Join("testdata", "write-csv.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		t.Fatalf("CSV output diverged from golden (regenerate with UPDATE_GOLDEN=1 if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPlotGlyphReuseBeyondFive(t *testing.T) {
	var many []Series
	for i := 0; i < 7; i++ {
		many = append(many, Series{
			Name:    "s",
			Samples: []power.Sample{{T: sim.Time(i * 10), W: float64(i + 1)}},
		})
	}
	out := Plot(many, 0, 100, 40, 6)
	if !strings.Contains(out, "*") {
		t.Fatal("glyphs should wrap around")
	}
}

func TestGanttManyLabelsWrapGlyphs(t *testing.T) {
	g := NewGantt()
	for i := 0; i < 30; i++ {
		g.Add("lane", string(rune('a'+i%26))+"x"+string(rune('0'+i/26)), sim.Time(i*10), sim.Time(i*10+5))
	}
	out := g.Render(0, 300, 60)
	if !strings.Contains(out, "lane") {
		t.Fatal("render failed with many labels")
	}
}

func TestGanttClipping(t *testing.T) {
	g := NewGantt()
	g.Add("l", "x", -50, 5)   // starts before the view
	g.Add("l", "y", 95, 200)  // ends after the view
	g.Add("l", "z", 300, 400) // fully outside
	out := g.Render(0, 100, 50)
	if !strings.Contains(out, "= x") || !strings.Contains(out, "= y") {
		t.Fatalf("clipped spans missing:\n%s", out)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func TestWriteCSVPropagatesErrors(t *testing.T) {
	err := WriteCSV(&failWriter{}, []Series{{Name: "a", Samples: []power.Sample{{T: 1, W: 1}}}})
	if err == nil {
		t.Fatal("write error swallowed")
	}
}
