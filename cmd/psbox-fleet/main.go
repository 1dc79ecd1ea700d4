// Command psbox-fleet runs a fleet of independently-seeded device
// simulations across a worker pool under the fault-tolerant supervisor
// (internal/fleet): per-shard panic isolation, a hung-shard watchdog,
// retry-with-resume from PSBX checkpoints, and quarantine with explicit
// coverage accounting. The merged report on stdout is deterministic for a
// fixed (seed, shards, ms, quanta, retries, chaos) regardless of -workers,
// completion order, or which retry attempt succeeded — the CI fleet-soak
// job byte-compares it across worker counts and against goldens.
//
// With -chaos, a seeded schedule of shard kills, hangs, and checkpoint
// corruption exercises the whole supervision path reproducibly.
//
// The observability flags append further deterministic renderings of the
// same run to stdout, in fixed order after the merged report: -metrics
// (the cross-shard metrics rollup with the per-device energy distribution
// and blame-share outliers), -profile (the fleet energy profile as
// flamegraph-collapsed stacks), -top N (the heaviest N stacks as a
// table), and -expo (Prometheus text exposition). -progress reports
// shards done/quarantined and a wall-clock ETA on stderr; it reads host
// time but never touches sim state, so stdout stays byte-identical with
// or without it.
//
// Usage:
//
//	psbox-fleet [-seed N] [-shards N] [-workers N] [-ms D] [-quanta N]
//	            [-ckpt-every N] [-retries N] [-stall D] [-chaos]
//	            [-metrics] [-profile] [-top N] [-expo] [-progress]
//
// Exit status: 0 on a complete or chaos-degraded fleet, 1 when shards
// were quarantined without chaos (an unexpected failure), 2 on usage
// errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"psbox/internal/fleet"
	"psbox/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psbox-fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 42, "fleet seed; shard i simulates with ShardSeed(seed, i)")
	shards := fs.Int("shards", 8, "number of device simulations")
	workers := fs.Int("workers", 0, "worker goroutines (0 = NumCPU); never affects the report")
	ms := fs.Int64("ms", 200, "per-shard simulated horizon in milliseconds")
	quanta := fs.Int("quanta", 20, "sim steps per shard (heartbeat granularity)")
	ckptEvery := fs.Int("ckpt-every", 5, "checkpoint every this many quanta")
	retries := fs.Int("retries", 2, "retries per shard after the first attempt (0 disables retry)")
	stall := fs.Duration("stall", 30*time.Second, "hung-shard watchdog: wall time without sim progress before cancellation")
	chaos := fs.Bool("chaos", false, "inject the seeded chaos schedule (kills, hangs, checkpoint corruption)")
	metrics := fs.Bool("metrics", false, "append the fleet metrics rollup (registry, device energy distribution, outliers)")
	prof := fs.Bool("profile", false, "append the fleet energy profile as flamegraph-collapsed stacks")
	topN := fs.Int("top", 0, "append the heaviest N energy stacks as a table (0 disables)")
	expo := fs.Bool("expo", false, "append the rollup in Prometheus text exposition format")
	progress := fs.Bool("progress", false, "report shards done/quarantined and a wall-clock ETA on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ms <= 0 {
		fmt.Fprintln(stderr, "psbox-fleet: -ms must be positive")
		return 2
	}
	if *shards < 1 {
		fmt.Fprintln(stderr, "psbox-fleet: -shards must be at least 1")
		return 2
	}
	if *quanta < 2 {
		fmt.Fprintln(stderr, "psbox-fleet: -quanta must be at least 2")
		return 2
	}
	if *topN < 0 {
		fmt.Fprintln(stderr, "psbox-fleet: -top must be non-negative")
		return 2
	}

	cfg := fleet.Config{
		Shards:          *shards,
		Workers:         *workers,
		Horizon:         sim.Duration(*ms) * sim.Millisecond,
		Seed:            *seed,
		Quanta:          *quanta,
		CheckpointEvery: *ckptEvery,
		MaxRetries:      *retries,
		StallTimeout:    *stall,
	}
	if *chaos {
		cfg.Chaos = fleet.NewPlan(*seed, *shards, *quanta, *ckptEvery, *retries+1)
	}
	if *progress {
		// Wall-clock supervision reporting lives here in the CLI, outside
		// the deterministic core: it writes only to stderr and feeds
		// nothing back into the run.
		start := time.Now()
		cfg.Progress = func(done, quarantined, total int) {
			elapsed := time.Since(start)
			line := fmt.Sprintf("psbox-fleet: %d/%d shards done, %d quarantined, elapsed %v",
				done, total, quarantined, elapsed.Round(time.Millisecond))
			if done < total {
				eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
				line += fmt.Sprintf(", eta %v", eta.Round(time.Millisecond))
			}
			fmt.Fprintln(stderr, line)
		}
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "psbox-fleet:", err)
		return 2
	}
	fmt.Fprint(stdout, res.Format())
	if *metrics || *prof || *topN > 0 || *expo {
		ru := res.Rollup()
		render := func(section string, write func() error) error {
			if _, err := fmt.Fprintf(stdout, "== %s ==\n", section); err != nil {
				return err
			}
			return write()
		}
		var werr error
		if *metrics {
			werr = render("fleet metrics", func() error { return ru.WriteMetrics(stdout) })
		}
		if werr == nil && *prof {
			werr = render("fleet energy profile (folded stacks)", func() error { return ru.WriteFolded(stdout) })
		}
		if werr == nil && *topN > 0 {
			werr = render("fleet energy profile (top stacks)", func() error { return ru.WriteTop(stdout, *topN) })
		}
		if werr == nil && *expo {
			werr = render("prometheus exposition", func() error { return ru.WriteProm(stdout) })
		}
		if werr != nil {
			fmt.Fprintln(stderr, "psbox-fleet:", werr)
			return 2
		}
	}
	if !*chaos {
		for _, sh := range res.Shards {
			if sh.Quarantined {
				return 1
			}
		}
	}
	return 0
}
