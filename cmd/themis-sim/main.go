// Command themis-sim runs one cluster-scheduling simulation — a synthetic
// trace, a registered scenario, or a trace file (native JSON, the compact v3
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
	"flag"
	"fmt"
	"os"
	"strings"

	"themis"
)

func main() {
	var (
		clusterKind = flag.String("cluster", "sim", "cluster topology: "+strings.Join(themis.Clusters(), ", "))
		policyName  = flag.String("policy", "themis", "scheduling policy: "+strings.Join(themis.Policies(), ", "))
		packerName  = flag.String("packer", "", "placement engine for policy grants: "+strings.Join(themis.Packers(), ", ")+" (empty: policies place their own)")
		numApps     = flag.Int("apps", 30, "number of apps to generate (ignored with -trace)")
		seed        = flag.Int64("seed", 1, "workload generation seed")
		scale       = flag.Float64("scale", 1.0, "job duration scale factor")
		interArr    = flag.Float64("interarrival", 20, "mean app inter-arrival time (minutes)")
		contention  = flag.Float64("contention", 1, "contention factor (scales the arrival rate)")
		lease       = flag.Float64("lease", 20, "GPU lease duration (minutes)")
		fairness    = flag.Float64("f", 0.8, "Themis fairness knob")
		bidError    = flag.Float64("biderror", 0, "Themis bid valuation error θ (Figure 11)")
		scenario    = flag.String("scenario", "", "generate the workload from a registered scenario ("+strings.Join(themis.Scenarios(), ", ")+") or from a fit-report file written by 'tracegen fit'")
		tracePath   = flag.String("trace", "", "replay apps from a trace file instead of generating")
		traceFormat = flag.String("trace-format", "auto", "trace file format: "+formatNames())
		maxApps     = flag.Int("max-apps", 0, "cap the number of apps imported from -trace (0: all)")
		model       = flag.String("model", "", "stamp apps imported from a CSV -trace with this model family: "+strings.Join(themis.ModelNames(), ", "))
		horizon     = flag.Float64("horizon", 0, "simulation horizon in minutes (0 = unlimited)")
		perApp      = flag.Bool("per-app", false, "also print per-app records")
	)
	flag.Parse()

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
	switch {
	case *tracePath != "" && *scenario != "":
		fmt.Fprintln(os.Stderr, "themis-sim: -trace and -scenario are mutually exclusive")
		os.Exit(2)
	case *tracePath != "":
		// The importer handles native JSON too (format auto-detection), so
		// one flag pair covers replaying both trace files and raw cluster
		// logs; CSV-only knobs are simply unused on JSON input.
		tr, err := themis.ImportTraceFile(*tracePath, themis.TraceFormat(*traceFormat), themis.ImportOptions{
			MaxApps: *maxApps,
			Model:   *model,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "themis-sim:", err)
			os.Exit(1)
		}
		opts = append(opts, themis.WithTrace(tr))
	case *scenario != "":
		// A fit-report file (tracegen fit output) registers as a calibrated
		// scenario under its path, then runs through the ordinary registry:
		// the import → fit → register → simulate loop in one invocation.
		if _, err := themis.DescribeScenario(*scenario); err != nil {
			if _, statErr := os.Stat(*scenario); statErr == nil {
				rep, loadErr := themis.LoadFitReport(*scenario)
				if loadErr != nil {
					fmt.Fprintln(os.Stderr, "themis-sim:", loadErr)
					os.Exit(1)
				}
				if regErr := themis.RegisterCalibratedScenario(*scenario, rep); regErr != nil {
					fmt.Fprintln(os.Stderr, "themis-sim:", regErr)
					os.Exit(1)
				}
			}
		}
		opts = append(opts, themis.WithScenario(*scenario, themis.ScenarioParams{
			Seed:             *seed,
			NumApps:          *numApps,
			DurationScale:    *scale,
			ContentionFactor: *contention,
			MeanInterArrival: *interArr,
		}))
	default:
		spec := themis.DefaultWorkloadSpec()
		spec.NumApps = *numApps
		spec.Seed = *seed
		spec.DurationScale = *scale
		spec.MeanInterArrival = *interArr
		spec.ContentionFactor = *contention
		opts = append(opts, themis.WithWorkload(spec))
	}

	if err := run(*clusterKind, *perApp, opts); err != nil {
		fmt.Fprintln(os.Stderr, "themis-sim:", err)
		os.Exit(1)
	}
}

func run(clusterKind string, perApp bool, opts []themis.Option) error {
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

	fmt.Printf("policy               %s\n", sum.Policy)
	fmt.Printf("cluster              %s (%d GPUs, %d machines, %d racks)\n", clusterKind, topo.TotalGPUs(), topo.NumMachines(), topo.NumRacks())
	fmt.Printf("apps                 %d finished / %d total\n", sum.AppsFinished, sum.AppsTotal)
	fmt.Printf("makespan             %.1f min\n", sum.Makespan)
	fmt.Printf("peak contention      %.2fx\n", sum.PeakContention)
	fmt.Printf("max fairness (rho)   %.3f\n", sum.MaxFairness)
	fmt.Printf("median fairness      %.3f\n", sum.MedianFairness)
	fmt.Printf("Jain's index         %.3f\n", sum.JainsIndex)
	fmt.Printf("mean completion time %.1f min (p95 %.1f)\n", sum.MeanCompletionTime, sum.P95CompletionTime)
	fmt.Printf("mean placement score %.3f\n", sum.MeanPlacementScore)
	fmt.Printf("cluster GPU time     %.0f GPU-min\n", sum.GPUTime)
	fr := rep.Fragmentation
	fmt.Printf("fragmentation        score mean %.3f / peak %.3f (free GPUs %.1f; largest blocks: machine %.1f, rack %.1f, domain %.1f)\n",
		fr.MeanScore, fr.PeakScore, fr.MeanFreeGPUs, fr.MeanLargestMachineBlock, fr.MeanLargestRackBlock, fr.MeanLargestDomainBlock)

	if st := rep.Auction; st != nil {
		fmt.Printf("auctions             %d (offers %d, GPUs auctioned %d, leftover %d)\n",
			st.Auctions, st.OffersMade, st.GPUsAuctioned, st.GPUsLeftOver)
		if st.Auctions > 0 {
			fmt.Printf("auction latency      mean %.2f ms, max %.2f ms\n",
				float64(st.TotalAuctionTime.Milliseconds())/float64(st.Auctions), float64(st.MaxAuctionTime.Milliseconds()))
		}
	}

	if perApp {
		fmt.Println()
		fmt.Println("app\tmodel\tsubmit\tcompletion\trho\tplacement\tjobs\tkilled")
		for _, rec := range rep.Apps {
			fmt.Printf("%s\t%s\t%.1f\t%.1f\t%.3f\t%.2f\t%d\t%d\n",
				rec.App, rec.Model, rec.SubmitTime, rec.CompletionTime, rec.FinishTimeFairness, rec.PlacementScore, rec.JobsTotal, rec.JobsKilled)
		}
	}
	return nil
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
