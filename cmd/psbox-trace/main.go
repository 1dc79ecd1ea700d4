// Command psbox-trace dumps Fig. 7-style multiplexing timelines and power
// traces, Fig. 6-style observation curves, CSV for external plotting, and
// — through the observability bus — the canonical event-stream trace in
// Perfetto (Chrome trace-event JSON), CSV, or ASCII form, plus the
// metrics report and the power-attribution (blame) timeline.
//
// Usage:
//
//	psbox-trace                       # ASCII panels (Fig. 7)
//	psbox-trace -fig6                 # Fig. 6-style psbox-vs-baseline curves
//	psbox-trace -csv cpu.csv          # also write the CPU-scenario power trace
//	psbox-trace -format=perfetto      # event-stream trace, load in ui.perfetto.dev
//	psbox-trace -format=csv           # the same events as CSV rows
//	psbox-trace -format=ascii         # the same events as an ASCII gantt
//	psbox-trace -metrics              # canonical metrics report
//	psbox-trace -blame cpu            # per-sample power attribution on a rail
//
// The -format/-metrics/-blame modes drive one deterministic traced
// scenario (calib3d sandboxed on the CPU co-running with bodytrack on an
// AM57, one injected DAQ dropout); the same seed always yields
// byte-identical output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	psbox "psbox"
	"psbox/internal/account"
	"psbox/internal/experiments"
	"psbox/internal/obs"
	"psbox/internal/sim"
	"psbox/internal/trace"
	"psbox/internal/workload"
)

// coRun installs the co-run every view of this command shows: calib3d
// boxed on the CPU beside bodytrack. It returns the victim and its box.
func coRun(sys *psbox.System) (*psbox.App, *psbox.Box) {
	victim := workload.Install(sys.Kernel, workload.Catalog()["calib3d"](2, false))
	workload.Install(sys.Kernel, workload.Catalog()["bodytrack"](2, false))
	box := sys.Sandbox.MustCreate(victim, psbox.HWCPU)
	box.Enter()
	return victim, box
}

// fig6Curves renders the paper's Fig. 6 visual: the victim's power as seen
// through its psbox against the share the baseline accounting attributes
// to it, co-running with a noisy neighbour.
func fig6Curves(seed uint64) {
	sys := psbox.NewAM57(seed)
	victim, box := coRun(sys)
	sys.Run(1500 * psbox.Millisecond)

	from, to := sim.Time(500*sim.Millisecond), sys.Now()
	step := 10 * sim.Millisecond
	acc := sys.Accountant("cpu", account.PolicyUsageShare)
	fmt.Println("Fig. 6-style curves — calib3d co-running with bodytrack (CPU rail)")
	fmt.Println(trace.Plot([]trace.Series{
		{Name: "psbox virtual meter", Samples: trace.DownsampleSamples(
			box.SamplesBetween(psbox.HWCPU, from, to), from, to, step)},
		{Name: "baseline attributed share", Samples: acc.Series(victim.ID, from, to, step)},
		{Name: "whole rail", Samples: trace.DownsampleRail(sys.Meter.Rail("cpu"), from, to, step)},
	}, from, to, 100, 12))
}

// tracedRun drives the canonical observability scenario with the bus
// armed from t=0: the co-run on an AM57, plus one injected DAQ dropout at
// 2/5 of the horizon so the degraded-metering path shows on the timeline.
func tracedRun(seed uint64, horizon psbox.Duration) *psbox.System {
	sys := psbox.NewAM57(seed)
	sys.EnableTracing()
	coRun(sys)
	sys.Faults.DropMeterAt(sim.Time(horizon*2/5), "cpu", horizon/100)
	sys.Run(horizon)
	return sys
}

// ringSummary reports the trace ring's accounting on w (stderr in the
// CLI, so the deterministic stdout views stay byte-stable): how many
// events were emitted, how many the ring retained, and the exact count
// the ring dropped once full. A non-zero dropped count means the
// timeline's oldest events were truncated — rerun with a longer ring or
// a shorter horizon if the missing prefix matters.
func ringSummary(w io.Writer, b *obs.Bus) {
	fmt.Fprintf(w, "psbox-trace: %d events emitted, %d retained, %d dropped (ring overflow)\n",
		b.Total(), b.Len(), b.Dropped())
}

// emitTraced renders the requested views of one traced run onto w. A
// blame request the run cannot answer — a rail the meter lacks, an empty
// or reversed window, or a window outside the run — is refused before
// anything is written.
func emitTraced(w io.Writer, sys *psbox.System, format string, metrics bool, blameRail string, blameFrom, blameLen psbox.Duration) error {
	from := sim.Time(blameFrom)
	to := from.Add(blameLen)
	if blameRail != "" {
		if !sys.Meter.HasRail(blameRail) {
			return fmt.Errorf("no rail %q to blame; the meter has %s",
				blameRail, strings.Join(sys.Meter.Rails(), ", "))
		}
		if blameLen <= 0 {
			return fmt.Errorf("blame window [%g ms, %g ms) is empty; -blame-ms must be positive",
				blameFrom.Milliseconds(), (blameFrom + blameLen).Milliseconds())
		}
		if from < 0 || to > sys.Now() {
			return fmt.Errorf("blame window [%g ms, %g ms) lies outside the run's %g ms horizon",
				blameFrom.Milliseconds(), (blameFrom + blameLen).Milliseconds(),
				sim.Duration(sys.Now()).Milliseconds())
		}
	}
	if format != "" {
		enc, err := obs.EncoderFor(format)
		if err != nil {
			return err
		}
		if err := enc.Encode(w, sys.Trace.Dump()); err != nil {
			return err
		}
	}
	if metrics {
		if err := sys.Trace.WriteMetrics(w); err != nil {
			return err
		}
	}
	if blameRail != "" {
		blames := sys.Blame(blameRail, from, to)
		owners := make(map[int]string)
		for _, a := range sys.Kernel.Apps() {
			owners[a.ID] = a.Name
		}
		if err := obs.WriteBlame(w, blameRail, blames, owners); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	seed := flag.Uint64("seed", 1, "simulation seed")
	fig6 := flag.Bool("fig6", false, "render Fig. 6-style observation curves instead of Fig. 7 panels")
	csvPath := flag.String("csv", "", "write the boxed-CPU scenario's power trace as CSV")
	format := flag.String("format", "", "emit the traced scenario's event stream: perfetto, csv, or ascii")
	metrics := flag.Bool("metrics", false, "emit the traced scenario's canonical metrics report")
	blame := flag.String("blame", "", "emit the power-attribution timeline for this rail (e.g. cpu)")
	ms := flag.Int("ms", 500, "traced scenario horizon in milliseconds (with -format/-metrics/-blame)")
	blameFromMS := flag.Int("blame-from-ms", 100, "attribution window start, in milliseconds")
	blameMS := flag.Int("blame-ms", 2, "attribution window length, in milliseconds")
	outPath := flag.String("o", "", "write -format/-metrics/-blame output to this file instead of stdout")
	flag.Parse()

	if *format != "" || *metrics || *blame != "" {
		if *ms <= 0 {
			fmt.Fprintln(os.Stderr, "psbox-trace: -ms must be positive")
			os.Exit(2)
		}
		sys := tracedRun(*seed, psbox.Duration(*ms)*psbox.Millisecond)
		w := io.Writer(os.Stdout)
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		err := emitTraced(w, sys, *format, *metrics, *blame,
			psbox.Duration(*blameFromMS)*psbox.Millisecond, psbox.Duration(*blameMS)*psbox.Millisecond)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbox-trace:", err)
			os.Exit(1)
		}
		ringSummary(os.Stderr, sys.Trace)
		return
	}

	if *fig6 {
		fig6Curves(*seed)
		return
	}
	fmt.Println(experiments.Fig7(*seed))

	if *csvPath == "" {
		return
	}
	sys := psbox.NewAM57(*seed)
	_, box := coRun(sys)
	sys.Run(2 * psbox.Second)
	f, err := os.Create(*csvPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	step := 1 * psbox.Millisecond
	err = trace.WriteCSV(f, []trace.Series{
		{Name: "cpu_rail", Samples: trace.DownsampleRail(sys.Meter.Rail("cpu"), 0, sys.Now(), step)},
		{Name: "victim_psbox", Samples: trace.DownsampleSamples(
			box.SamplesBetween(psbox.HWCPU, 0, sys.Now()), 0, sys.Now(), step)},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *csvPath)
}
