// Command psbox-faults runs a seeded fault-injection scenario and prints a
// deterministic report: the fault log, the recovery counters of every
// layer, and the sandboxes' final observations. Two runs with the same
// seed must print byte-identical output — the CI determinism job runs it
// twice (once under -race), diffs the runs, and diffs both seeds against
// the golden reports committed under testdata/.
//
// Usage:
//
//	psbox-faults [-seed N] [-ms D]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"psbox"
	"psbox/internal/sim"
	"psbox/internal/soak"
)

func main() {
	seed := flag.Uint64("seed", 42, "simulation seed")
	ms := flag.Int64("ms", 2000, "simulated duration in milliseconds")
	flag.Parse()
	if *ms <= 0 {
		fmt.Fprintln(os.Stderr, "psbox-faults: -ms must be positive")
		os.Exit(2)
	}
	fmt.Print(buildReport(*seed, *ms))
}

// buildReport runs the canonical fault scenario (soak.Scenario) and
// renders the full report. It is the unit the determinism harness
// snapshots: the golden files under testdata/ hold its output verbatim for
// two (seed, ms) pairs.
func buildReport(seed uint64, ms int64) string {
	horizon := sim.Duration(ms) * psbox.Millisecond
	sys := soak.Scenario(seed, horizon)
	sys.Run(horizon)

	var b strings.Builder
	fmt.Fprintln(&b, "== fault log ==")
	b.WriteString(sys.Faults.FormatLog())

	fmt.Fprintln(&b, "== recovery ==")
	for _, name := range sys.Kernel.AccelNames() {
		d := sys.Kernel.Accel(name)
		fmt.Fprintf(&b, "%-6s watchdog resets=%d resubmits=%d dropped=%d\n",
			name, d.WatchdogResets(), d.Resubmits(), d.DroppedCommands())
	}
	fmt.Fprintf(&b, "net    flaps=%d retries=%d\n", sys.Kernel.Net().NIC().Flaps(), sys.Kernel.Net().LinkRetries())

	fmt.Fprintln(&b, "== observations ==")
	for _, bx := range sys.Sandbox.Boxes() {
		direct, est, gaps := bx.ReadDetail()
		fmt.Fprintf(&b, "%-7s read=%.9f J direct=%.9f J estimated=%.9f J gaps=%d degraded=%v\n",
			bx.App().Name, direct+est, direct, est, gaps, bx.Degraded())
	}
	fmt.Fprintf(&b, "battery=%.9f J\n", sys.Meter.Energy("battery", 0, sys.Now()))
	fmt.Fprintln(&b, "invariants: ok")
	return b.String()
}
