// Command psbox-sidechan runs the §2.5 GPU power side-channel attack end
// to end, under both observation regimes, and prints the confusion
// matrices.
//
// Usage:
//
//	psbox-sidechan [-sites N] [-trials N] [-seed N] [-confusion]
//
// Exit status: 0 on success, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"psbox/internal/sidechannel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psbox-sidechan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sites := fs.Int("sites", 10, "number of synthetic websites")
	trials := fs.Int("trials", 3, "co-running trials per site")
	seed := fs.Uint64("seed", 1234, "simulation seed")
	confusion := fs.Bool("confusion", false, "print confusion matrices")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sites < 1 {
		fmt.Fprintln(stderr, "psbox-sidechan: -sites must be at least 1")
		return 2
	}
	if *trials < 1 {
		fmt.Fprintln(stderr, "psbox-sidechan: -trials must be at least 1")
		return 2
	}

	for _, obs := range []sidechannel.Observation{
		sidechannel.ObserveUnrestricted,
		sidechannel.ObservePSBox,
	} {
		cfg := sidechannel.DefaultConfig(obs)
		cfg.Sites = *sites
		cfg.Trials = *trials
		cfg.Seed = *seed
		res := sidechannel.Run(cfg)
		fmt.Fprintf(stdout, "%-13s success %3d/%3d = %5.1f%% (random %.1f%%, advantage %.1f×, leakage %.2f of %.2f bits)\n",
			obs.String()+":", res.Correct, res.Total, res.SuccessRate*100,
			res.RandomGuess*100, res.SuccessRate/res.RandomGuess,
			res.LeakageBits(), res.MaxLeakageBits())
		if *confusion {
			fmt.Fprintln(stdout, "  confusion (rows: actual site, cols: guess):")
			for i, row := range res.Confusion {
				fmt.Fprintf(stdout, "  site%02d:", i)
				for _, v := range row {
					fmt.Fprintf(stdout, " %2d", v)
				}
				fmt.Fprintln(stdout)
			}
		}
	}
	return 0
}
