package themis

// The benchmarks in this file regenerate the paper's evaluation: one
// benchmark per figure (the benchmark's reported custom metrics are the
// figure's headline numbers), plus the §8.3.2 overhead microbenchmarks and
// ablations of the design decisions called out in DESIGN.md.
//
// Figures are run at the Quick() experiment scale so the full suite
// completes in minutes; cmd/expdriver regenerates them at paper-fidelity
// scale. Absolute numbers differ from the paper (the substrate is a
// simulator, not the authors' Azure testbed) but the qualitative shapes —
// who wins, by roughly what factor, where trends bend — are preserved;
// `go run ./cmd/expdriver -fig scorecard` checks them against the paper's
// claims.

import (
	"context"
	"fmt"
	"testing"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/experiments"
	"themis/internal/hyperparam"
	"themis/internal/metrics"
	"themis/internal/placement"
	"themis/internal/schedulers"
	"themis/internal/sim"
	"themis/internal/solver"
	"themis/internal/workload"
)

func benchOpts() experiments.Options { return experiments.Quick() }

// benchTable builds the named figure table once per iteration and returns
// the last one built.
func benchTable(b *testing.B, name string) experiments.Table {
	b.Helper()
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Tables(benchOpts(), name)
		if err != nil {
			b.Fatal(err)
		}
		t = tables[0]
	}
	return t
}

// ends returns the first and last cells of the named numeric column.
func ends(t experiments.Table, col string) (first, last float64) {
	vals := t.Floats(col)
	return vals[0], vals[len(vals)-1]
}

// reportPerScheme reports the mean of the named column over each scheme's
// rows, as unit prefix+scheme.
func reportPerScheme(b *testing.B, t experiments.Table, col, prefix string) {
	sum, n := map[string]float64{}, map[string]int{}
	vals := t.Floats(col)
	for i, s := range t.Cells("scheme") {
		sum[s.(string)] += vals[i]
		n[s.(string)]++
	}
	for scheme, v := range sum {
		b.ReportMetric(v/float64(n[scheme]), prefix+scheme)
	}
}

// BenchmarkFigure1TaskDurationCDF regenerates Figure 1 (trace task-duration
// distribution).
func BenchmarkFigure1TaskDurationCDF(b *testing.B) {
	t := benchTable(b, "1")
	b.ReportMetric(t.Footer[0].Args[3].(float64), "task-p50-min") // the trace note's duration p50
}

// BenchmarkFigure2PlacementThroughput regenerates Figure 2 (placement
// sensitivity of model throughput).
func BenchmarkFigure2PlacementThroughput(b *testing.B) {
	t := benchTable(b, "2")
	vggSlowdown := t.Lookup("model", "VGG16", "slowdown")
	resnetSlowdown := t.Lookup("model", "ResNet50", "slowdown")
	b.ReportMetric(vggSlowdown, "vgg16-2x2-slowdown")
	b.ReportMetric(resnetSlowdown, "resnet50-2x2-slowdown")
}

// BenchmarkFigure4aFairnessKnob regenerates Figure 4a (fairness vs f).
func BenchmarkFigure4aFairnessKnob(b *testing.B) {
	atLow, atHigh := ends(benchTable(b, "4a"), "max_rho")
	b.ReportMetric(atLow, "max-rho-f0")
	b.ReportMetric(atHigh, "max-rho-f1")
}

// BenchmarkFigure4bGPUTimeVsKnob regenerates Figure 4b (GPU time vs f).
func BenchmarkFigure4bGPUTimeVsKnob(b *testing.B) {
	atLow, atHigh := ends(benchTable(b, "4b"), "gpu_time_min")
	b.ReportMetric(atLow, "gpu-min-f0")
	b.ReportMetric(atHigh, "gpu-min-f1")
}

// BenchmarkFigure4cLeaseTime regenerates Figure 4c (fairness vs lease length).
func BenchmarkFigure4cLeaseTime(b *testing.B) {
	shortLease, longLease := ends(benchTable(b, "4c"), "max_rho")
	b.ReportMetric(shortLease, "max-rho-lease5")
	b.ReportMetric(longLease, "max-rho-lease40")
}

// BenchmarkFigure5aMaxFairness regenerates Figure 5a (max finish-time
// fairness across schemes).
func BenchmarkFigure5aMaxFairness(b *testing.B) {
	reportPerScheme(b, benchTable(b, "5a"), "max_rho", "max-rho-")
}

// BenchmarkFigure5bJainsIndex regenerates Figure 5b (Jain's index across
// schemes).
func BenchmarkFigure5bJainsIndex(b *testing.B) {
	reportPerScheme(b, benchTable(b, "5b"), "jains_index", "jains-")
}

// BenchmarkFigure6AppCompletionCDF regenerates Figure 6 (app completion time
// CDFs) and reports Themis's mean-JCT improvements.
func BenchmarkFigure6AppCompletionCDF(b *testing.B) {
	for _, n := range benchTable(b, "6").Footer[1:] { // one "vs <scheme>" note each
		b.ReportMetric(n.Args[1].(float64), "jct-improvement-pct-vs-"+n.Args[0].(string))
	}
}

// BenchmarkFigure7PlacementScoreCDF regenerates Figure 7 (placement score
// CDFs) and reports each scheme's mean placement score over its CDF points.
func BenchmarkFigure7PlacementScoreCDF(b *testing.B) {
	reportPerScheme(b, benchTable(b, "7"), "placement_score", "placement-")
}

// BenchmarkFigure8AllocationTimeline regenerates Figure 8 (short vs long app
// allocation timeline).
func BenchmarkFigure8AllocationTimeline(b *testing.B) {
	b.ReportMetric(float64(len(benchTable(b, "8").Rows)), "timeline-events")
}

// BenchmarkFigure9aPlacementSensitivityFairness regenerates Figure 9a
// (factor of improvement over Tiresias vs % network-intensive apps).
func BenchmarkFigure9aPlacementSensitivityFairness(b *testing.B) {
	at0, at100 := ends(benchTable(b, "9a"), "factor")
	b.ReportMetric(at0, "improvement-0pct-network")
	b.ReportMetric(at100, "improvement-100pct-network")
}

// BenchmarkFigure9bPlacementSensitivityGPUTime regenerates Figure 9b (GPU
// time vs % network-intensive apps).
func BenchmarkFigure9bPlacementSensitivityGPUTime(b *testing.B) {
	t := benchTable(b, "9b")
	_, themisAt100 := ends(t, "themis")
	_, tiresiasAt100 := ends(t, "tiresias")
	b.ReportMetric(themisAt100, "gpu-min-themis-100pct")
	b.ReportMetric(tiresiasAt100, "gpu-min-tiresias-100pct")
}

// BenchmarkFigure10Contention regenerates Figure 10 (Jain's index vs
// contention).
func BenchmarkFigure10Contention(b *testing.B) {
	t := benchTable(b, "10")
	_, themis4x := ends(t, "themis")
	_, tiresias4x := ends(t, "tiresias")
	b.ReportMetric(themis4x, "jains-themis-4x")
	b.ReportMetric(tiresias4x, "jains-tiresias-4x")
}

// BenchmarkFigure11BidError regenerates Figure 11 (robustness to bid
// valuation error).
func BenchmarkFigure11BidError(b *testing.B) {
	at0, at20 := ends(benchTable(b, "11"), "max_rho")
	b.ReportMetric(at0, "max-rho-0pct-error")
	b.ReportMetric(at20, "max-rho-20pct-error")
}

// --- §8.3.2 overhead microbenchmarks -------------------------------------

// overheadFixture builds a loaded agent and offer of the given size for the
// bid-preparation and auction overhead benchmarks.
func overheadFixture(machines, jobs int) (*cluster.Topology, *core.Agent, cluster.Alloc) {
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: machines, GPUs: 4, SlotSize: 2}},
		MachinesPerRack: 16,
	}.Build()
	if err != nil {
		panic(err)
	}
	var trials []*workload.Job
	for i := 0; i < jobs; i++ {
		j := workload.NewJob("bench-app", i, 400, 4)
		j.Quality = float64(i) / float64(jobs)
		j.Seed = int64(i)
		trials = append(trials, j)
	}
	app := workload.NewApp("bench-app", 0, placement.VGG16, trials)
	agent := core.NewAgent(topo, app, hyperparam.ForApp(app), nil)
	offer := cluster.NewAlloc()
	for m := 0; m < machines; m++ {
		offer[cluster.MachineID(m)] = 4
	}
	return topo, agent, offer
}

// BenchmarkAgentBidPreparation measures the Agent-side bid computation the
// paper reports at 29 ms median / 334 ms p95 (§8.3.2).
func BenchmarkAgentBidPreparation(b *testing.B) {
	for _, size := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("machines-%d", size), func(b *testing.B) {
			_, agent, offer := overheadFixture(size, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bid := agent.PrepareBid(10, offer, cluster.NewAlloc())
				if len(bid.Entries) == 0 {
					b.Fatal("empty bid")
				}
			}
		})
	}
}

// BenchmarkArbiterPartialAllocation measures the Arbiter-side partial
// allocation the paper reports at 354 ms median / 1398 ms p95 (§8.3.2).
func BenchmarkArbiterPartialAllocation(b *testing.B) {
	for _, bidders := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("bidders-%d", bidders), func(b *testing.B) {
			topo, _, offer := overheadFixture(32, 4)
			var bids []core.BidTable
			for k := 0; k < bidders; k++ {
				_, agent, _ := overheadFixture(32, 8)
				bid := agent.PrepareBid(10, offer, cluster.NewAlloc())
				bid.App = workload.AppID(fmt.Sprintf("app-%d", k))
				bids = append(bids, bid)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunPartialAllocation(topo, offer, bids, core.AuctionOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartialAllocation measures one whole auction, hidden payments on,
// over bid tables from a mixed population (gangs of 1/2/4, half the apps
// already holding GPUs, so some bidders win and most do not) — 16 bidders is
// the contended-replay shape, 128 a shard of the serving path. It shows at a
// glance whether the auction has gone back to one compile per bidder;
// allocs/op is reported for the same reason.
func BenchmarkPartialAllocation(b *testing.B) {
	for _, bidders := range []int{16, 128} {
		b.Run(fmt.Sprintf("%dbidders", bidders), func(b *testing.B) {
			topo, _, offer := overheadFixture(32, 1)
			var bids []core.BidTable
			for k := 0; k < bidders; k++ {
				var trials []*workload.Job
				for i := 0; i < 1+k%4; i++ {
					trials = append(trials, workload.NewJob("bench-app", i, float64(200+37*(k%11)), 1<<(k%3)))
				}
				id := workload.AppID(fmt.Sprintf("app-%03d", k))
				app := workload.NewApp(id, float64(k%7), placement.Catalog()[k%len(placement.Catalog())], trials)
				agent := core.NewAgent(topo, app, hyperparam.ForApp(app), nil)
				current := cluster.NewAlloc()
				if k%2 == 1 {
					current[cluster.MachineID(k%32)] = 2
				}
				bids = append(bids, agent.PrepareBid(30, offer, current))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunPartialAllocation(topo, offer, bids, core.AuctionOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepareBid measures one agent's bid table over a 128-GPU offer as
// the app's active-job count grows; the per-table cost must stay one job
// ordering plus one split per row, not one ordering per row.
func BenchmarkPrepareBid(b *testing.B) {
	for _, jobs := range []int{8, 64} {
		b.Run(fmt.Sprintf("%djobs", jobs), func(b *testing.B) {
			_, agent, offer := overheadFixture(32, jobs)
			for k, j := range agent.App.Jobs {
				j.DoneWork = float64((k*7)%5) * 50 // repeated work-left values, interleaved
			}
			current := cluster.Alloc{0: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bid := agent.PrepareBid(10, offer, current); len(bid.Entries) < 2 {
					b.Fatal("bid table has no candidate rows")
				}
			}
		})
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblationNoHiddenPayments compares max fairness with and without
// the truth-telling hidden payments (DESIGN.md decision 3).
func BenchmarkAblationNoHiddenPayments(b *testing.B) {
	opts := benchOpts()
	topo := cluster.TestbedCluster()
	run := func(disable bool, seed int64) float64 {
		cfg := core.DefaultConfig()
		cfg.Auction.DisableHiddenPayments = disable
		apps := benchWorkload(b, opts, seed, 0.4)
		policy, err := schedulers.NewThemis(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := runBenchSim(topo, apps, policy, opts)
		if err != nil {
			b.Fatal(err)
		}
		return metrics.MaxFairness(res)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(false, opts.Seed)
		without = run(true, opts.Seed)
	}
	b.ReportMetric(with, "max-rho-with-payments")
	b.ReportMetric(without, "max-rho-without-payments")
}

// BenchmarkAblationValuationModes compares placement-aware and
// placement-blind bid valuations (DESIGN.md decision 1).
func BenchmarkAblationValuationModes(b *testing.B) {
	opts := benchOpts()
	topo := cluster.TestbedCluster()
	run := func(blind bool) (float64, float64) {
		apps := benchWorkload(b, opts, opts.Seed, 0.6)
		policy, err := schedulers.NewThemis(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		policy.PlacementBlind = blind
		res, err := runBenchSim(topo, apps, policy, opts)
		if err != nil {
			b.Fatal(err)
		}
		return metrics.GPUTime(res), metrics.Mean(metrics.PlacementScores(res))
	}
	var awareGPU, blindGPU, awareScore, blindScore float64
	for i := 0; i < b.N; i++ {
		awareGPU, awareScore = run(false)
		blindGPU, blindScore = run(true)
	}
	b.ReportMetric(awareGPU, "gpu-min-placement-aware")
	b.ReportMetric(blindGPU, "gpu-min-placement-blind")
	b.ReportMetric(awareScore, "score-placement-aware")
	b.ReportMetric(blindScore, "score-placement-blind")
}

// BenchmarkSolverExactVsGreedy quantifies the winner-determination quality
// gap between the exact branch-and-bound and the local-search heuristic
// (DESIGN.md decision 4).
func BenchmarkSolverExactVsGreedy(b *testing.B) {
	topo, _, offer := overheadFixture(8, 4)
	var bids []core.BidTable
	for k := 0; k < 5; k++ {
		_, agent, _ := overheadFixture(8, 6)
		bid := agent.PrepareBid(10, offer, cluster.NewAlloc())
		bid.App = workload.AppID(fmt.Sprintf("app-%d", k))
		bids = append(bids, bid)
	}
	_ = topo
	var exactObj, greedyObj float64
	for i := 0; i < b.N; i++ {
		exact, err := core.RunPartialAllocation(topo, offer, bids, core.AuctionOptions{})
		if err != nil {
			b.Fatal(err)
		}
		greedy, err := core.RunPartialAllocation(topo, offer, bids, core.AuctionOptions{
			Solver: solver.Options{ExactLimit: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		exactObj, greedyObj = exact.Objective, greedy.Objective
	}
	b.ReportMetric(exactObj, "log-objective-exact")
	b.ReportMetric(greedyObj, "log-objective-greedy")
}

// runBenchSim runs one simulation for the ablation benchmarks, which need
// custom workloads outside the figure tables.
func runBenchSim(topo *cluster.Topology, apps []*workload.App, policy sim.Policy, opts experiments.Options) (*sim.Result, error) {
	s, err := sim.New(sim.Config{
		Topology:        topo,
		Apps:            apps,
		Policy:          policy,
		LeaseDuration:   opts.LeaseDuration,
		RestartOverhead: opts.RestartOverhead,
		Horizon:         opts.Horizon,
	})
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background())
}

// benchWorkload builds a testbed-scale workload for the ablation benchmarks.
func benchWorkload(b *testing.B, opts experiments.Options, seed int64, networkFraction float64) []*workload.App {
	b.Helper()
	cfg := workload.DefaultGeneratorConfig()
	cfg.Seed = seed
	cfg.NumApps = opts.TestbedApps
	cfg.MeanInterArrival = opts.MeanInterArrival
	cfg.FractionNetworkIntensive = networkFraction
	cfg.JobsPerAppMedian = opts.JobsPerAppMedian
	cfg.MaxJobsPerApp = opts.MaxJobsPerApp
	cfg.DurationScale = opts.TestbedDurationScale
	apps, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return apps
}
