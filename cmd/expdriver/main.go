// Command expdriver regenerates the data behind every table and figure in
// the paper's evaluation (§8). Each figure's data series is printed as
// tab-separated values, ready for plotting.
//
// Usage:
//
//	expdriver -fig all            # every figure at paper-fidelity scale
//	expdriver -fig 5a -quick      # one figure at benchmark scale
//	expdriver -fig 9a -seed 7
//	expdriver -fig all -workers 4 # bound the sweep engine's worker pool
//	expdriver -fig scorecard      # the paper's claims checked against the figures
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"themis/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "expdriver:", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested tables to w, each followed by a
// blank line.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("expdriver", flag.ContinueOnError)
	var (
		fig = fs.String("fig", "all", fmt.Sprintf("comma-separated figures to regenerate: %s; 'all' for every figure, or 'scorecard'",
			strings.Join(experiments.Names(), ",")))
		quick   = fs.Bool("quick", false, "use the scaled-down benchmark configuration instead of paper-fidelity scale")
		seed    = fs.Int64("seed", 0, "override the workload seed (0 keeps the default)")
		workers = fs.Int("workers", 0, "worker pool size for the sweep engine (0 = GOMAXPROCS, 1 = sequential)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	opts.Workers = *workers // Tables rejects a negative pool size

	names := experiments.Names()
	if *fig != "all" {
		names = strings.Split(*fig, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}
	tables, err := experiments.Tables(opts, names...)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if _, err := fmt.Fprintln(w, t); err != nil {
			return err
		}
	}
	return nil
}
