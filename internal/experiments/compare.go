package experiments

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"themis/internal/cluster"
	"themis/internal/metrics"
	"themis/internal/workload"
)

// cdfPoints is the number of points in each scheme's CDF in Figures 6 and 7.
const cdfPoints = 20

// comparison replays the testbed workload (50-GPU cluster, durations scaled
// down 5× as in the paper's §8.3 footnote) under Themis, Gandiva, SLAQ and
// Tiresias, running the four schemes concurrently through the sweep engine.
// Figures 5a (max finish-time fairness, against the ideal), 5b (Jain's
// index), 6 (app completion times, with Themis's mean-JCT improvement) and 7
// (placement scores) are its four views.
func comparison(opts Options) ([]Table, error) {
	topo := cluster.TestbedCluster()
	set := SchedulerSet(opts.themisConfig())
	specs := make([]RunSpec, 0, len(schemeOrder))
	for _, scheme := range schemeOrder {
		specs = append(specs, opts.spec(
			fmt.Sprintf("comparison run %s", scheme), topo,
			func() ([]*workload.App, error) { return opts.testbedWorkload(opts.Seed) },
			set[scheme],
		))
	}
	results, err := Sweep(context.Background(), opts.Workers, specs)
	if err != nil {
		return nil, err
	}
	// The ideal scheduler's ρ at the workload's peak contention (the paper
	// reports 4.76× for its workload).
	contention, err := demandContention(opts, topo)
	if err != nil {
		return nil, err
	}
	ideal := metrics.IdealMaxFairness(contention)

	fig5a := Table{
		Name:    "5a",
		Title:   "Figure 5a: max finish-time fairness per scheme",
		Notes:   []Note{{"ideal max fairness at this contention: %.2f", []any{ideal}}},
		Columns: []Column{{"scheme", "%s"}, {"max_rho", "%.3f"}, {"pct_from_ideal", "%.1f%%"}},
	}
	fig5b := Table{
		Name:    "5b",
		Title:   "Figure 5b: Jain's fairness index per scheme",
		Columns: []Column{{"scheme", "%s"}, {"jains_index", "%.3f"}},
	}
	fig6 := Table{
		Name:    "6",
		Title:   "Figure 6: CDF of app completion times (minutes) per scheme",
		Columns: []Column{{"scheme", "%s"}, {"completion_min", "%.1f"}, {"cdf", "%.2f"}},
		Footer:  []Note{{Format: "Themis mean-JCT improvement over other schemes:"}},
	}
	fig7 := Table{
		Name:    "7",
		Title:   "Figure 7: CDF of placement score per scheme",
		Columns: []Column{{"scheme", "%s"}, {"placement_score", "%.2f"}, {"cdf", "%.2f"}},
	}
	themisJCT := metrics.MeanCompletionTime(results[0]) // schemeOrder starts with Themis
	for i, scheme := range schemeOrder {
		res := results[i]
		maxRho := metrics.MaxFairness(res)
		// The paper quotes how far each scheme is from the ideal (Themis ≈7 %,
		// the others 68–2155 %).
		fig5a.Rows = append(fig5a.Rows, []any{scheme, maxRho, 100 * (maxRho - ideal) / ideal})
		fig5b.Rows = append(fig5b.Rows, []any{scheme, metrics.JainsIndexOf(res)})
		appendCDF(&fig6, scheme, metrics.CompletionTimes(res))
		appendCDF(&fig7, scheme, metrics.PlacementScores(res))
		// The paper quotes 4.6 %, 55.5 % and 24.4 % vs Gandiva, SLAQ and
		// Tiresias.
		if other := metrics.MeanCompletionTime(res); scheme != "themis" && other > 0 {
			fig6.Footer = append(fig6.Footer, Note{"vs %s: %.1f%%", []any{scheme, 100 * (other - themisJCT) / other}})
		}
	}
	return []Table{fig5a, fig5b, fig6, fig7}, nil
}

// appendCDF appends scheme's CDF of values to t, one row per point.
func appendCDF(t *Table, scheme string, values []float64) {
	cdf := metrics.NewCDF(values, cdfPoints)
	for i := range cdf.Values {
		t.Rows = append(t.Rows, []any{scheme, cdf.Values[i], cdf.Fractions[i]})
	}
}

// demandContention computes the peak aggregate GPU demand over capacity for
// the comparison workload — the paper's contention statistic (4.76× on its
// testbed workload). Peak used/capacity equals it only when the cluster
// saturates, so it is computed from demand, not from the runs.
func demandContention(opts Options, topo *cluster.Topology) (float64, error) {
	apps, err := opts.testbedWorkload(opts.Seed)
	if err != nil {
		return 0, err
	}
	// Aggregate demand over time: each app demands its max parallelism from
	// submission until (approximately) submission + total work / parallelism.
	type event struct {
		t float64
		d int
	}
	var events []event
	for _, a := range apps {
		demand := a.MaxParallelism()
		if demand == 0 {
			continue
		}
		dur := a.TotalWork() / float64(demand)
		events = append(events, event{a.SubmitTime, demand}, event{a.SubmitTime + dur, -demand})
	}
	// The transient peak at a tie depends on the order equal times apply in;
	// the stable sort keeps it the order appended.
	slices.SortStableFunc(events, func(a, b event) int { return cmp.Compare(a.t, b.t) })
	maxDemand, cur := 0, 0
	for _, e := range events {
		cur += e.d
		maxDemand = max(maxDemand, cur)
	}
	return float64(maxDemand) / float64(topo.TotalGPUs()), nil
}
