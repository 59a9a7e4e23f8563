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
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"themis/experiments"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 1,2,4a,4b,4c,5a,5b,6,7,8,9a,9b,10,11 or 'all'")
		quick   = flag.Bool("quick", false, "use the scaled-down benchmark configuration instead of paper-fidelity scale")
		seed    = flag.Int64("seed", 0, "override the workload seed (0 keeps the default)")
		workers = flag.Int("workers", 0, "worker pool size for the sweep engine (0 = GOMAXPROCS, 1 = sequential)")
	)
	flag.Parse()

	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "expdriver: -workers must be non-negative")
		os.Exit(2)
	}
	opts.Workers = *workers

	figs := strings.Split(*fig, ",")
	if *fig == "all" {
		figs = []string{"1", "2", "4a", "4b", "4c", "5a", "5b", "6", "7", "8", "9a", "9b", "10", "11"}
	}
	for _, f := range figs {
		if err := emit(strings.TrimSpace(f), opts); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: figure %s: %v\n", f, err)
			os.Exit(1)
		}
	}
}

func emit(fig string, opts experiments.Options) error {
	switch fig {
	case "1":
		res, err := experiments.Figure1(opts)
		if err != nil {
			return err
		}
		fmt.Println("# Figure 1: CDF of task durations (minutes)")
		fmt.Println("duration_min\tcdf")
		for i := range res.Durations {
			fmt.Printf("%.2f\t%.3f\n", res.Durations[i], res.Fractions[i])
		}
		fmt.Printf("# trace: %d apps, %d jobs, jobs/app median %.0f, duration p50 %.1f min\n",
			res.Stats.NumApps, res.Stats.NumJobs, res.Stats.JobsPerAppMedian, res.Stats.TaskDurationP50)

	case "2":
		fmt.Println("# Figure 2: throughput (images/sec) for 4 GPUs on 1 server vs 2x2 servers")
		fmt.Println("model\tone_server\ttwo_by_two\tslowdown")
		for _, r := range experiments.Figure2() {
			fmt.Printf("%s\t%.1f\t%.1f\t%.2f\n", r.Model, r.OneServer, r.TwoByTwoServers, r.Slowdown)
		}

	case "4a":
		rows, err := experiments.Figure4a(opts)
		if err != nil {
			return err
		}
		fmt.Println("# Figure 4a: finish-time fairness vs fairness knob f")
		fmt.Println("f\tmax_rho\tmedian_rho\tmin_rho")
		for _, r := range rows {
			fmt.Printf("%.1f\t%.3f\t%.3f\t%.3f\n", r.F, r.MaxFairness, r.MedianFairness, r.MinFairness)
		}

	case "4b":
		rows, err := experiments.Figure4b(opts)
		if err != nil {
			return err
		}
		fmt.Println("# Figure 4b: GPU time (GPU-minutes) vs fairness knob f")
		fmt.Println("f\tgpu_time_min")
		for _, r := range rows {
			fmt.Printf("%.1f\t%.0f\n", r.F, r.GPUTime)
		}

	case "4c":
		rows, err := experiments.Figure4c(opts)
		if err != nil {
			return err
		}
		fmt.Println("# Figure 4c: max finish-time fairness vs lease duration")
		fmt.Println("lease_min\tmax_rho")
		for _, r := range rows {
			fmt.Printf("%.0f\t%.3f\n", r.LeaseMinutes, r.MaxFairness)
		}

	case "5a", "5b", "6", "7":
		cmp, err := experiments.RunComparison(opts)
		if err != nil {
			return err
		}
		switch fig {
		case "5a":
			fmt.Println("# Figure 5a: max finish-time fairness per scheme")
			fmt.Printf("# ideal max fairness at this contention: %.2f\n", cmp.IdealMaxFairness)
			fmt.Println("scheme\tmax_rho\tpct_from_ideal")
			for _, r := range cmp.Figure5a() {
				fmt.Printf("%s\t%.3f\t%.1f%%\n", r.Scheme, r.MaxFairness, r.PercentFromIdeal)
			}
		case "5b":
			fmt.Println("# Figure 5b: Jain's fairness index per scheme")
			fmt.Println("scheme\tjains_index")
			for _, r := range cmp.Figure5b() {
				fmt.Printf("%s\t%.3f\n", r.Scheme, r.JainsIndex)
			}
		case "6":
			fmt.Println("# Figure 6: CDF of app completion times (minutes) per scheme")
			fmt.Println("scheme\tcompletion_min\tcdf")
			for _, c := range cmp.Figure6(20) {
				for i := range c.Values {
					fmt.Printf("%s\t%.1f\t%.2f\n", c.Scheme, c.Values[i], c.Fractions[i])
				}
			}
			fmt.Println("# Themis mean-JCT improvement over other schemes:")
			improvement := cmp.MeanJCTImprovement()
			for _, scheme := range slices.Sorted(maps.Keys(improvement)) {
				fmt.Printf("# vs %s: %.1f%%\n", scheme, improvement[scheme])
			}
		case "7":
			fmt.Println("# Figure 7: CDF of placement score per scheme")
			fmt.Println("scheme\tplacement_score\tcdf")
			for _, c := range cmp.Figure7(20) {
				for i := range c.Values {
					fmt.Printf("%s\t%.2f\t%.2f\n", c.Scheme, c.Values[i], c.Fractions[i])
				}
			}
		}

	case "8":
		res, err := experiments.Figure8(opts)
		if err != nil {
			return err
		}
		fmt.Println("# Figure 8: GPU allocation timeline for a short and a long app")
		fmt.Println("app\ttime_min\tgpus")
		for _, e := range res.Short {
			fmt.Printf("short\t%.1f\t%d\n", e.Time, e.GPUs)
		}
		for _, e := range res.Long {
			fmt.Printf("long\t%.1f\t%d\n", e.Time, e.GPUs)
		}

	case "9a":
		rows, err := experiments.Figure9a(opts)
		if err != nil {
			return err
		}
		fmt.Println("# Figure 9a: factor of improvement in max fairness (Themis over Tiresias) vs % network-intensive apps")
		fmt.Println("pct_network\tthemis_max_rho\ttiresias_max_rho\tfactor")
		for _, r := range rows {
			fmt.Printf("%.0f\t%.3f\t%.3f\t%.2f\n", r.NetworkFraction*100, r.ThemisMaxFairness, r.TiresiasMaxFairness, r.FactorOfImprovement)
		}

	case "9b":
		rows, err := experiments.Figure9b(opts)
		if err != nil {
			return err
		}
		fmt.Println("# Figure 9b: GPU time (GPU-minutes) vs % network-intensive apps")
		fmt.Println("pct_network\tthemis\tgandiva\tslaq\ttiresias")
		for _, r := range rows {
			fmt.Printf("%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n", r.NetworkFraction*100,
				r.GPUTime["themis"], r.GPUTime["gandiva"], r.GPUTime["slaq"], r.GPUTime["tiresias"])
		}

	case "10":
		rows, err := experiments.Figure10(opts)
		if err != nil {
			return err
		}
		fmt.Println("# Figure 10: Jain's fairness index vs contention factor")
		fmt.Println("contention\tthemis\ttiresias")
		for _, r := range rows {
			fmt.Printf("%.0fX\t%.3f\t%.3f\n", r.ContentionFactor, r.ThemisJains, r.TiresiasJains)
		}

	case "11":
		rows, err := experiments.Figure11(opts)
		if err != nil {
			return err
		}
		fmt.Println("# Figure 11: max finish-time fairness vs % error in bid valuations")
		fmt.Println("pct_error\tmax_rho")
		for _, r := range rows {
			fmt.Printf("%.0f%%\t%.3f\n", r.Theta*100, r.MaxFairness)
		}

	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	fmt.Println()
	return nil
}
