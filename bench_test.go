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
// who wins, by roughly what factor, where trends bend — are preserved and
// recorded in EXPERIMENTS.md.

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

// BenchmarkFigure1TaskDurationCDF regenerates Figure 1 (trace task-duration
// distribution).
func BenchmarkFigure1TaskDurationCDF(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		median = res.Stats.TaskDurationP50
	}
	b.ReportMetric(median, "task-p50-min")
}

// BenchmarkFigure2PlacementThroughput regenerates Figure 2 (placement
// sensitivity of model throughput).
func BenchmarkFigure2PlacementThroughput(b *testing.B) {
	var vggSlowdown, resnetSlowdown float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Figure2() {
			switch r.Model {
			case "VGG16":
				vggSlowdown = r.Slowdown
			case "ResNet50":
				resnetSlowdown = r.Slowdown
			}
		}
	}
	b.ReportMetric(vggSlowdown, "vgg16-2x2-slowdown")
	b.ReportMetric(resnetSlowdown, "resnet50-2x2-slowdown")
}

// BenchmarkFigure4aFairnessKnob regenerates Figure 4a (fairness vs f).
func BenchmarkFigure4aFairnessKnob(b *testing.B) {
	var atLow, atHigh float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		atLow, atHigh = rows[0].MaxFairness, rows[len(rows)-1].MaxFairness
	}
	b.ReportMetric(atLow, "max-rho-f0")
	b.ReportMetric(atHigh, "max-rho-f1")
}

// BenchmarkFigure4bGPUTimeVsKnob regenerates Figure 4b (GPU time vs f).
func BenchmarkFigure4bGPUTimeVsKnob(b *testing.B) {
	var atLow, atHigh float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		atLow, atHigh = rows[0].GPUTime, rows[len(rows)-1].GPUTime
	}
	b.ReportMetric(atLow, "gpu-min-f0")
	b.ReportMetric(atHigh, "gpu-min-f1")
}

// BenchmarkFigure4cLeaseTime regenerates Figure 4c (fairness vs lease length).
func BenchmarkFigure4cLeaseTime(b *testing.B) {
	var shortLease, longLease float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4c(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		shortLease, longLease = rows[0].MaxFairness, rows[len(rows)-1].MaxFairness
	}
	b.ReportMetric(shortLease, "max-rho-lease5")
	b.ReportMetric(longLease, "max-rho-lease40")
}

// benchComparison runs the §8.3 four-scheme comparison once per iteration
// and hands each iteration's result to report.
func benchComparison(b *testing.B, report func(*experiments.Comparison)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.RunComparison(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(cmp)
	}
}

// BenchmarkFigure5aMaxFairness regenerates Figure 5a (max finish-time
// fairness across schemes).
func BenchmarkFigure5aMaxFairness(b *testing.B) {
	vals := map[string]float64{}
	benchComparison(b, func(cmp *experiments.Comparison) {
		for _, r := range cmp.Figure5a() {
			vals[r.Scheme] = r.MaxFairness
		}
	})
	for scheme, v := range vals {
		b.ReportMetric(v, "max-rho-"+scheme)
	}
}

// BenchmarkFigure5bJainsIndex regenerates Figure 5b (Jain's index across
// schemes).
func BenchmarkFigure5bJainsIndex(b *testing.B) {
	vals := map[string]float64{}
	benchComparison(b, func(cmp *experiments.Comparison) {
		for _, r := range cmp.Figure5b() {
			vals[r.Scheme] = r.JainsIndex
		}
	})
	for scheme, v := range vals {
		b.ReportMetric(v, "jains-"+scheme)
	}
}

// BenchmarkFigure6AppCompletionCDF regenerates Figure 6 (app completion time
// CDFs) and reports Themis's mean-JCT improvements.
func BenchmarkFigure6AppCompletionCDF(b *testing.B) {
	impr := map[string]float64{}
	benchComparison(b, func(cmp *experiments.Comparison) {
		cmp.Figure6(20)
		impr = cmp.MeanJCTImprovement()
	})
	for scheme, pct := range impr {
		b.ReportMetric(pct, "jct-improvement-pct-vs-"+scheme)
	}
}

// BenchmarkFigure7PlacementScoreCDF regenerates Figure 7 (placement score
// CDFs) and reports each scheme's mean placement score.
func BenchmarkFigure7PlacementScoreCDF(b *testing.B) {
	vals := map[string]float64{}
	benchComparison(b, func(cmp *experiments.Comparison) {
		cmp.Figure7(20)
		for scheme, res := range cmp.Results {
			vals[scheme] = metrics.Mean(metrics.PlacementScores(res))
		}
	})
	for scheme, v := range vals {
		b.ReportMetric(v, "placement-"+scheme)
	}
}

// BenchmarkFigure8AllocationTimeline regenerates Figure 8 (short vs long app
// allocation timeline).
func BenchmarkFigure8AllocationTimeline(b *testing.B) {
	var events int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		events = len(res.Short) + len(res.Long)
	}
	b.ReportMetric(float64(events), "timeline-events")
}

// BenchmarkFigure9aPlacementSensitivityFairness regenerates Figure 9a
// (factor of improvement over Tiresias vs % network-intensive apps).
func BenchmarkFigure9aPlacementSensitivityFairness(b *testing.B) {
	var at0, at100 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure9a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		at0, at100 = rows[0].FactorOfImprovement, rows[len(rows)-1].FactorOfImprovement
	}
	b.ReportMetric(at0, "improvement-0pct-network")
	b.ReportMetric(at100, "improvement-100pct-network")
}

// BenchmarkFigure9bPlacementSensitivityGPUTime regenerates Figure 9b (GPU
// time vs % network-intensive apps).
func BenchmarkFigure9bPlacementSensitivityGPUTime(b *testing.B) {
	var themisAt100, tiresiasAt100 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure9b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		themisAt100, tiresiasAt100 = last.GPUTime["themis"], last.GPUTime["tiresias"]
	}
	b.ReportMetric(themisAt100, "gpu-min-themis-100pct")
	b.ReportMetric(tiresiasAt100, "gpu-min-tiresias-100pct")
}

// BenchmarkFigure10Contention regenerates Figure 10 (Jain's index vs
// contention).
func BenchmarkFigure10Contention(b *testing.B) {
	var themis4x, tiresias4x float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		themis4x, tiresias4x = last.ThemisJains, last.TiresiasJains
	}
	b.ReportMetric(themis4x, "jains-themis-4x")
	b.ReportMetric(tiresias4x, "jains-tiresias-4x")
}

// BenchmarkFigure11BidError regenerates Figure 11 (robustness to bid
// valuation error).
func BenchmarkFigure11BidError(b *testing.B) {
	var at0, at20 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		at0, at20 = rows[0].MaxFairness, rows[len(rows)-1].MaxFairness
	}
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

// runBenchSim mirrors experiments.Options.runSim for the ablation benchmarks
// (which need custom workloads outside the figure constructors).
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
