package experiments

import (
	"fmt"
	"slices"

	"themis/internal/core"
	"themis/internal/metrics"
	"themis/internal/sim"
	"themis/internal/workload"
)

// networkShares is the sweep of the share of network-intensive apps of
// Figures 9a and 9b.
var networkShares = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// networkSweep runs every scheme at each share of network-intensive apps on
// the simulated cluster. Figure 9a is Themis's factor of improvement in max
// fairness over Tiresias; Figure 9b is every scheme's total GPU time.
func networkSweep(opts Options) ([]Table, error) {
	topo := opts.simTopology()
	set := SchedulerSet(opts.themisConfig())
	avgs, err := opts.sweepAverage(len(networkShares),
		func(p int, seed int64) []RunSpec {
			frac := networkShares[p]
			apps := func() ([]*workload.App, error) { return opts.simWorkload(seed, frac, 1) }
			specs := make([]RunSpec, 0, len(schemeOrder))
			for _, scheme := range schemeOrder {
				specs = append(specs, opts.spec(
					fmt.Sprintf("figure 9 at %v%% network-intensive seed=%d %s", frac*100, seed, scheme),
					topo, apps, set[scheme]))
			}
			return specs
		},
		// Every scheme's GPU time, then every scheme's max fairness.
		func(cell []*sim.Result) []float64 {
			out := make([]float64, 2*len(cell))
			for i, res := range cell {
				out[i], out[len(cell)+i] = metrics.GPUTime(res), metrics.MaxFairness(res)
			}
			return out
		})
	if err != nil {
		return nil, err
	}
	fig9a := Table{
		Name:    "9a",
		Title:   "Figure 9a: factor of improvement in max fairness (Themis over Tiresias) vs % network-intensive apps",
		Columns: []Column{{"pct_network", "%.0f"}, {"themis_max_rho", "%.3f"}, {"tiresias_max_rho", "%.3f"}, {"factor", "%.2f"}},
	}
	fig9b := Table{
		Name:    "9b",
		Title:   "Figure 9b: GPU time (GPU-minutes) vs % network-intensive apps",
		Columns: []Column{{"pct_network", "%.0f"}},
	}
	for _, scheme := range schemeOrder {
		fig9b.Columns = append(fig9b.Columns, Column{scheme, "%.0f"})
	}
	n := len(schemeOrder)
	themis, tiresias := slices.Index(schemeOrder, "themis"), slices.Index(schemeOrder, "tiresias")
	for p, frac := range networkShares {
		gpuTime, maxRho := avgs[p][:n], avgs[p][n:]
		factor := 0.0
		if maxRho[themis] > 0 {
			factor = maxRho[tiresias] / maxRho[themis]
		}
		fig9a.Rows = append(fig9a.Rows, []any{frac * 100, maxRho[themis], maxRho[tiresias], factor})
		row := []any{frac * 100}
		for _, v := range gpuTime {
			row = append(row, v)
		}
		fig9b.Rows = append(fig9b.Rows, row)
	}
	return []Table{fig9a, fig9b}, nil
}

// contentionFactors is the contention sweep of Figure 10.
var contentionFactors = []float64{1, 2, 4}

// figure10 is Figure 10: contention rises as inter-arrival times shrink, and
// the figure compares how Themis's and Tiresias's Jain's index degrade.
func figure10(opts Options) ([]Table, error) {
	topo := opts.simTopology()
	set := SchedulerSet(opts.themisConfig())
	avgs, err := opts.sweepAverage(len(contentionFactors),
		func(p int, seed int64) []RunSpec {
			c := contentionFactors[p]
			apps := func() ([]*workload.App, error) { return opts.simWorkload(seed, 0.4, c) }
			return []RunSpec{
				opts.spec(fmt.Sprintf("figure 10 at %vx contention seed=%d themis", c, seed), topo, apps, set["themis"]),
				opts.spec(fmt.Sprintf("figure 10 at %vx contention seed=%d tiresias", c, seed), topo, apps, set["tiresias"]),
			}
		},
		func(cell []*sim.Result) []float64 {
			return []float64{metrics.JainsIndexOf(cell[0]), metrics.JainsIndexOf(cell[1])}
		})
	if err != nil {
		return nil, err
	}
	t := Table{
		Name:    "10",
		Title:   "Figure 10: Jain's fairness index vs contention factor",
		Columns: []Column{{"contention", "%.0fX"}, {"themis", "%.3f"}, {"tiresias", "%.3f"}},
	}
	for p, c := range contentionFactors {
		t.Rows = append(t.Rows, []any{c, avgs[p][0], avgs[p][1]})
	}
	return []Table{t}, nil
}

// bidErrors is the bid-valuation error sweep θ of Figure 11.
var bidErrors = []float64{0, 0.05, 0.10, 0.20}

// figure11 is Figure 11: every Agent's ρ estimates carry ±θ random error,
// and max finish-time fairness is computed, as in the paper, on accurate
// realised times.
func figure11(opts Options) ([]Table, error) {
	avgs, err := opts.themisSweep("figure 11 at theta", bidErrors,
		func(theta float64) (core.Config, float64) { return opts.themisConfig(), theta },
		func(res *sim.Result) []float64 { return []float64{metrics.MaxFairness(res)} })
	if err != nil {
		return nil, err
	}
	t := Table{
		Name:    "11",
		Title:   "Figure 11: max finish-time fairness vs % error in bid valuations",
		Columns: []Column{{"pct_error", "%.0f%%"}, {"max_rho", "%.3f"}},
	}
	for p, theta := range bidErrors {
		t.Rows = append(t.Rows, []any{theta * 100, avgs[p][0]})
	}
	return []Table{t}, nil
}
