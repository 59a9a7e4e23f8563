// Scenario-library tour: lists the built-in workload scenarios, then fans
// every scenario × {Themis, Tiresias} across the parallel sweep engine and
// compares the schedulers' fairness and efficiency per workload family —
// the evaluation axis the scenario subsystem opens beyond the paper's single
// production mix.
//
//	go run ./examples/scenarios
package main

import (
	"context"
	"fmt"
	"log"

	"themis"
)

func main() {
	fmt.Println("built-in scenarios:")
	for _, name := range themis.Scenarios() {
		desc, err := themis.DescribeScenario(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s %s\n", name, desc)
	}
	fmt.Println()

	policies := []string{"themis", "tiresias"}
	scenarios := themis.Scenarios()
	specs, err := themis.Grid{
		Policies:  policies,
		Scenarios: scenarios,
		Seeds:     []int64{11},
		Params:    themis.ScenarioParams{NumApps: 12, DurationScale: 0.2},
		Base:      []themis.Option{themis.WithCluster(themis.ClusterTestbed), themis.WithHorizon(20000)},
	}.Specs()
	if err != nil {
		log.Fatal(err)
	}
	results, err := themis.RunSweep(context.Background(), 0, specs)
	if err != nil {
		log.Fatal(err)
	}

	// Grid expands policy-major, so result i is policy i/len(scenarios) on
	// scenario i%len(scenarios).
	fmt.Println("scenario       scheme     max_rho  jains  mean_jct_min  gpu_time")
	for i, res := range results {
		s := res.Report.Summary
		fmt.Printf("%-14s %-10s %7.2f  %5.3f  %12.1f  %8.0f\n",
			scenarios[i%len(scenarios)], policies[i/len(scenarios)], s.MaxFairness, s.JainsIndex, s.MeanCompletionTime, s.GPUTime)
	}
}
