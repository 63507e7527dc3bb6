// Command aimt-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	aimt-bench              # regenerate everything, in paper order
//	aimt-bench -exp fig14   # one experiment
//	aimt-bench -list        # list experiment ids
//	aimt-bench -parallel 8  # cap the simulation worker pool at 8
//
// The experiments fan their simulations over a worker pool sized to
// GOMAXPROCS by default; -parallel caps it (1 forces serial). Output
// is identical at every setting. -cpuprofile/-memprofile capture pprof
// profiles of a sweep (use -parallel 1 for readable CPU profiles).
package main

import (
	"flag"
	"fmt"
	"os"

	"aimt"
	"aimt/internal/obs"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (empty = all)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		parallel   = flag.Int("parallel", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = serial)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()
	aimt.SetSweepParallelism(*parallel)

	stop, err := obs.StartProfile(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aimt-bench: %v\n", err)
		os.Exit(1)
	}
	runErr := run(*exp, *list)
	if err := stop(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "aimt-bench: %v\n", runErr)
		os.Exit(1)
	}
}

func run(exp string, list bool) error {
	exps := aimt.Experiments()
	if list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	cfg := aimt.PaperConfig()
	ran := false
	for _, e := range exps {
		if exp != "" && e.ID != exp {
			continue
		}
		ran = true
		if err := e.Run(os.Stdout, cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (use -list)", exp)
	}
	return nil
}
