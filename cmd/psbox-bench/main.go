// Command psbox-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	psbox-bench -list
//	psbox-bench -run all
//	psbox-bench -run fig6,fig8 -seed 7
//	psbox-bench -run everything -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"psbox/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "all", "comma-separated experiment IDs, 'all' (paper), 'extra' (ablations + §7), or 'everything'")
	seed := flag.Uint64("seed", 1, "simulation seed")
	asJSON := flag.Bool("json", false, "emit machine-readable results (one JSON object per experiment)")
	flag.Parse()

	if *list {
		fmt.Println("Paper experiments (DESIGN.md §3):")
		for _, e := range experiments.All() {
			fmt.Printf("  %-13s %s\n", e.ID, e.Title)
		}
		fmt.Println("Ablations and §7 extensions:")
		for _, e := range experiments.Extra() {
			fmt.Printf("  %-13s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Experiment
	switch *run {
	case "all":
		selected = experiments.All()
	case "extra":
		selected = experiments.Extra()
	case "everything":
		selected = append(experiments.All(), experiments.Extra()...)
	default:
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	for _, e := range selected {
		start := time.Now()
		result := e.Run(*seed)
		if *asJSON {
			if err := enc.Encode(map[string]any{
				"id":     e.ID,
				"title":  e.Title,
				"seed":   *seed,
				"result": result,
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		fmt.Println(result)
		fmt.Printf("[%s completed in %v of host time]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
