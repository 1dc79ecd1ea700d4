//psbox:allow-noconcurrency the hung-run watchdog runs the soak in a goroutine and races it against a wall-clock deadline; the simulation itself stays single-threaded

// Command psbox-soak is the crash-and-resume soak harness: it runs the
// canonical fault scenario (soak.Scenario) under the crash-and-resume
// protocol of internal/soak — checkpoints every horizon/10, kills at
// 25/50/75% of the horizon, restore by replay-twin verification, and a
// byte comparison of each resumed run's final report against the
// uninterrupted golden run's — and then steps two replicas restored from
// the 50% checkpoint in lockstep, comparing full system snapshots every
// quantum and reporting the first divergence.
//
// All output is deterministic for a (seed, ms) pair; the CI soak job
// diffs it against the goldens under testdata/.
//
// Usage:
//
//	psbox-soak [-seed N] [-ms D] [-timeout D]
//
// Exit status distinguishes the failure classes so CI and the fleet
// supervisor can react without parsing the transcript:
//
//	0  every resumed report matched the golden and the replicas stayed in
//	   lockstep
//	1  divergence: a resumed report or a lockstep replica deviated from
//	   the golden run
//	2  restore failure: a checkpoint was missing, unreadable, or failed
//	   replay verification (takes precedence over divergence)
//	3  timeout: the soak produced no verdict within -timeout wall time
//	   and is presumed hung
//	4  usage error
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"psbox"
	"psbox/internal/obs"
	"psbox/internal/sim"
	"psbox/internal/soak"
)

// Exit codes beyond the protocol verdicts soak.Result.Code returns.
const (
	exitTimeout = 3
	exitUsage   = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psbox-soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 42, "simulation seed")
	ms := fs.Int64("ms", 2000, "simulated duration in milliseconds")
	timeout := fs.Duration("timeout", 0, "hung-run watchdog: wall time to a verdict before exiting 3 (0 disables)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *ms <= 0 {
		fmt.Fprintln(stderr, "psbox-soak: -ms must be positive")
		return exitUsage
	}

	type verdict struct {
		out  string
		code int
	}
	// The watchdog races the soak against the deadline. The soak goroutine
	// owns a private System and the buffered channel lets it finish and be
	// collected even after the watchdog has given up on it.
	done := make(chan verdict, 1)
	go func() {
		out, code := transcript(*seed, *ms)
		done <- verdict{out, code}
	}()
	var deadline <-chan time.Time
	if *timeout > 0 {
		deadline = time.After(*timeout)
	}
	select {
	case v := <-done:
		fmt.Fprint(stdout, v.out)
		return v.code
	case <-deadline:
		fmt.Fprintf(stderr, "psbox-soak: no verdict after %v; run presumed hung\n", *timeout)
		return exitTimeout
	}
}

// report renders the scenario's final state: fault log, recovery
// counters, observations, and the audit count.
func report(sys *psbox.System) string {
	var b strings.Builder
	fmt.Fprintln(&b, "-- fault log --")
	b.WriteString(sys.Faults.FormatLog())
	fmt.Fprintln(&b, "-- recovery --")
	for _, name := range sys.Kernel.AccelNames() {
		d := sys.Kernel.Accel(name)
		fmt.Fprintf(&b, "%-6s watchdog resets=%d resubmits=%d dropped=%d\n",
			name, d.WatchdogResets(), d.Resubmits(), d.DroppedCommands())
	}
	fmt.Fprintf(&b, "net    flaps=%d retries=%d\n",
		sys.Kernel.Net().NIC().Flaps(), sys.Kernel.Net().LinkRetries())
	fmt.Fprintln(&b, "-- observations --")
	for _, bx := range sys.Sandbox.Boxes() {
		direct, est, gaps := bx.ReadDetail()
		fmt.Fprintf(&b, "%-10s read=%.9f J direct=%.9f J estimated=%.9f J gaps=%d degraded=%v\n",
			bx.App().Name, direct+est, direct, est, gaps, bx.Degraded())
	}
	fmt.Fprintf(&b, "battery=%.9f J audits=%d\n",
		sys.Meter.Energy("battery", 0, sys.Now()), sys.Audits())
	fmt.Fprintln(&b, "-- trace --")
	fmt.Fprintf(&b, "events=%d retained=%d dropped=%d\n",
		sys.Trace.Total(), sys.Trace.Len(), sys.Trace.Dropped())
	if dr := sys.Trace.Dropped(); dr > 0 {
		fmt.Fprintf(&b, "WARNING: trace ring dropped %d events (oldest first); raise the bus capacity to keep them\n", dr)
	}
	d := sys.Trace.Dump()
	for _, format := range []string{"perfetto", "csv", "ascii"} {
		enc, err := obs.EncoderFor(format)
		if err != nil {
			panic(err)
		}
		h := sha256.New()
		if err := enc.Encode(h, d); err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "%-8s sha256=%x\n", format, h.Sum(nil)[:8])
	}
	h := sha256.New()
	if err := sys.Trace.WriteMetrics(h); err != nil {
		panic(err)
	}
	fmt.Fprintf(&b, "%-8s sha256=%x\n", "metrics", h.Sum(nil)[:8])
	return b.String()
}

// transcript runs the crash-and-resume protocol and the lockstep replica
// check and renders their deterministic transcript plus the exit code for
// what they found.
func transcript(seed uint64, ms int64) (string, int) {
	horizon := sim.Duration(ms) * psbox.Millisecond
	var b strings.Builder
	fmt.Fprintf(&b, "psbox-soak seed=%d ms=%d checkpoints=every %d ms\n\n", seed, ms, ms/10)
	p := soak.Protocol{
		Build:   func() *psbox.System { return soak.Scenario(seed, horizon) },
		Report:  report,
		Horizon: horizon,
	}
	res := p.Run(&b)
	p.Lockstep(&b, &res)
	fmt.Fprintf(&b, "\nverdict: %s\n", res)
	return b.String(), res.Code()
}
