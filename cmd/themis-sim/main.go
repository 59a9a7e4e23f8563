// Command themis-sim runs one cluster-scheduling simulation — a synthetic
// trace, a built-in scenario, a fitted scenario, or a trace file (native JSON, the compact v3
// binary container, or an external Philly/Alibaba-style CSV cluster log)
// replayed against a GPU cluster under a chosen scheduling policy — and
// prints the fairness and efficiency metrics the paper evaluates.
//
// Examples:
//
//	themis-sim -cluster sim -policy themis -apps 50
//	themis-sim -cluster testbed -policy tiresias -apps 30 -scale 0.2
//	themis-sim -cluster sim-fabric -packer pack-to-empty -apps 50
//	themis-sim -scenario heavy-tailed -apps 40 -policy themis
//	themis-sim -scenario fitted.json -apps 40 -seed 7
//	themis-sim -trace trace.json -policy gandiva
//	themis-sim -trace trace.bin -policy themis
//	themis-sim -trace cluster_log.csv -trace-format auto -max-apps 200
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"themis"
)

func main() {
	err := run(flag.CommandLine, os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "themis-sim:", err)
		if errors.Is(err, errExclusive) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errExclusive is the one command line the flags parse but cannot run; main
// exits 2 on it, as the flag package does on a parse error.
var errExclusive = errors.New("-trace and -scenario are mutually exclusive")

// run parses args into fs, simulates, and prints the report to w.
func run(fs *flag.FlagSet, args []string, w io.Writer) error {
	var (
		clusterKind = fs.String("cluster", "sim", "cluster topology: "+strings.Join(themis.Clusters(), ", "))
		policyName  = fs.String("policy", "themis", "scheduling policy: "+strings.Join(themis.Policies(), ", "))
		packerName  = fs.String("packer", "", "placement engine for policy grants: "+strings.Join(themis.Packers(), ", ")+" (empty: policies place their own)")
		numApps     = fs.Int("apps", 30, "number of apps to generate (ignored with -trace)")
		seed        = fs.Int64("seed", 1, "workload generation seed")
		scale       = fs.Float64("scale", 0, "job duration scale factor (0: the workload's default, 1)")
		interArr    = fs.Float64("interarrival", 0, "mean app inter-arrival time in minutes (0: the workload's default, 20 unless fitted)")
		contention  = fs.Float64("contention", 0, "contention factor scaling the arrival rate (0: the workload's default, 1)")
		lease       = fs.Float64("lease", 20, "GPU lease duration (minutes)")
		fairness    = fs.Float64("f", 0.8, "Themis fairness knob")
		bidError    = fs.Float64("biderror", 0, "Themis bid valuation error θ (Figure 11)")
		scenario    = fs.String("scenario", "", "generate the workload from a built-in scenario ("+strings.Join(themis.Scenarios(), ", ")+") or from a fit-report file written by 'tracegen fit'")
		tracePath   = fs.String("trace", "", "replay apps from a trace file instead of generating")
		traceFormat = fs.String("trace-format", "auto", "trace file format: "+formatNames())
		maxApps     = fs.Int("max-apps", 0, "cap the number of apps imported from -trace (0: all)")
		model       = fs.String("model", "", "stamp apps imported from a CSV -trace with this model family: "+strings.Join(themis.ModelNames(), ", "))
		horizon     = fs.Float64("horizon", 0, "simulation horizon in minutes (0 = unlimited)")
		perApp      = fs.Bool("per-app", false, "also print per-app records")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := []themis.Option{
		themis.WithCluster(*clusterKind),
		themis.WithPolicy(*policyName),
		themis.WithSeed(*seed),
		themis.WithLeaseDuration(*lease),
		themis.WithFairnessKnob(*fairness),
		themis.WithBidError(*bidError),
		themis.WithHorizon(*horizon),
		themis.WithPacker(*packerName),
	}
	params := themis.ScenarioParams{
		Seed:             *seed,
		NumApps:          *numApps,
		DurationScale:    *scale,
		ContentionFactor: *contention,
		MeanInterArrival: *interArr,
	}
	switch {
	case *tracePath != "" && *scenario != "":
		return errExclusive
	case *tracePath != "":
		// The importer handles native JSON too (format auto-detection), so
		// one flag pair covers replaying both trace files and raw cluster
		// logs; CSV-only knobs are simply unused on JSON input.
		tr, err := themis.ImportTraceFile(*tracePath, themis.TraceFormat(*traceFormat), themis.ImportOptions{
			MaxApps: *maxApps,
			Model:   *model,
		})
		if err != nil {
			return err
		}
		opts = append(opts, themis.WithTrace(tr))
	case isFitReport(*scenario):
		// The flags set on the command line apply over the fitted config,
		// as they do over a built-in scenario's.
		rep, err := themis.LoadFitReport(*scenario)
		if err != nil {
			return err
		}
		apps, err := themis.ComposeWorkload(params.Apply(rep.Config))
		if err != nil {
			return err
		}
		opts = append(opts, themis.WithApps(apps...))
	case *scenario != "":
		opts = append(opts, themis.WithScenario(*scenario, params))
	default:
		spec := themis.DefaultWorkloadSpec()
		spec.NumApps = *numApps
		spec.Seed = *seed
		spec.DurationScale = *scale
		spec.MeanInterArrival = *interArr
		spec.ContentionFactor = *contention
		opts = append(opts, themis.WithWorkload(spec))
	}

	s, err := themis.NewSimulation(opts...)
	if err != nil {
		return err
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		return err
	}
	sum := rep.Summary
	topo := s.Topology()

	fmt.Fprintf(w, "policy               %s\n", sum.Policy)
	fmt.Fprintf(w, "cluster              %s (%d GPUs, %d machines, %d racks)\n", *clusterKind, topo.TotalGPUs(), topo.NumMachines(), topo.NumRacks())
	fmt.Fprintf(w, "apps                 %d finished / %d total\n", sum.AppsFinished, sum.AppsTotal)
	fmt.Fprintf(w, "makespan             %.1f min\n", sum.Makespan)
	fmt.Fprintf(w, "peak contention      %.2fx\n", sum.PeakContention)
	fmt.Fprintf(w, "max fairness (rho)   %.3f\n", sum.MaxFairness)
	fmt.Fprintf(w, "median fairness      %.3f\n", sum.MedianFairness)
	fmt.Fprintf(w, "Jain's index         %.3f\n", sum.JainsIndex)
	fmt.Fprintf(w, "mean completion time %.1f min (p95 %.1f)\n", sum.MeanCompletionTime, sum.P95CompletionTime)
	fmt.Fprintf(w, "mean placement score %.3f\n", sum.MeanPlacementScore)
	fmt.Fprintf(w, "cluster GPU time     %.0f GPU-min\n", sum.GPUTime)
	fr := rep.Fragmentation
	fmt.Fprintf(w, "fragmentation        score mean %.3f / peak %.3f (free GPUs %.1f; largest blocks: machine %.1f, rack %.1f, domain %.1f)\n",
		fr.MeanScore, fr.PeakScore, fr.MeanFreeGPUs, fr.MeanLargestMachineBlock, fr.MeanLargestRackBlock, fr.MeanLargestDomainBlock)

	if st := rep.Auction; st != nil {
		fmt.Fprintf(w, "auctions             %d (offers %d, GPUs auctioned %d, leftover %d)\n",
			st.Auctions, st.OffersMade, st.GPUsAuctioned, st.GPUsLeftOver)
		if st.Auctions > 0 {
			fmt.Fprintf(w, "auction latency      mean %.2f ms, max %.2f ms\n",
				float64(st.TotalAuctionTime.Milliseconds())/float64(st.Auctions), float64(st.MaxAuctionTime.Milliseconds()))
		}
	}

	if *perApp {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "app\tmodel\tsubmit\tcompletion\trho\tplacement\tjobs\tkilled")
		for _, rec := range rep.Apps {
			fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.3f\t%.2f\t%d\t%d\n",
				rec.App, rec.Model, rec.SubmitTime, rec.CompletionTime, rec.FinishTimeFairness, rec.PlacementScore, rec.JobsTotal, rec.JobsKilled)
		}
	}
	return nil
}

// isFitReport reports whether a -scenario value names a fit-report file
// (tracegen fit output): an existing file that is not a built-in scenario.
func isFitReport(scenario string) bool {
	if _, err := themis.DescribeScenario(scenario); scenario == "" || err == nil {
		return false
	}
	_, err := os.Stat(scenario)
	return err == nil
}

// formatNames lists the -trace-format values: auto plus every registered
// format.
func formatNames() string {
	names := []string{string(themis.TraceFormatAuto)}
	for _, f := range themis.TraceFormats() {
		names = append(names, string(f))
	}
	return strings.Join(names, ", ")
}
