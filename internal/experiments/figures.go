package experiments

import (
	"context"
	"fmt"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/metrics"
	"themis/internal/placement"
	"themis/internal/schedulers"
	"themis/internal/sim"
	"themis/internal/workload"
)

// figure1 is Figure 1, the CDF of task durations in a trace with the paper's
// distributional parameters. Durations are not scaled, so the x-axis is
// directly comparable with the paper's (0–1000 minutes).
func figure1(opts Options) ([]Table, error) {
	apps, err := figure1Trace(opts)
	if err != nil {
		return nil, err
	}
	cdf := metrics.NewCDF(workload.TaskDurations(apps), 100)
	st := workload.Summarize(apps)
	t := Table{
		Name:    "1",
		Title:   "Figure 1: CDF of task durations (minutes)",
		Columns: []Column{{"duration_min", "%.2f"}, {"cdf", "%.3f"}},
		Footer: []Note{{"trace: %d apps, %d jobs, jobs/app median %.0f, duration p50 %.1f min",
			[]any{st.NumApps, st.NumJobs, st.JobsPerAppMedian, st.TaskDurationP50}}},
	}
	for i := range cdf.Values {
		t.Rows = append(t.Rows, []any{cdf.Values[i], cdf.Fractions[i]})
	}
	return []Table{t}, nil
}

// figure1Trace generates the trace Figure 1 describes.
func figure1Trace(opts Options) ([]*workload.App, error) {
	return workload.Generate(opts.generatorConfig(max(opts.SimApps, 200), opts.Seed, 0.4, 1, 1))
}

// figure2 is Figure 2: the placement-sensitivity model's throughput for the
// five models the paper profiles, with 4 GPUs on one server vs 4 GPUs
// across two servers (2×2).
func figure2(Options) ([]Table, error) {
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: 2, GPUs: 4, SlotSize: 4, GPU: cluster.GPUTypeP100}},
		MachinesPerRack: 2,
	}.Build()
	if err != nil {
		return nil, err
	}
	t := Table{
		Name:    "2",
		Title:   "Figure 2: throughput (images/sec) for 4 GPUs on 1 server vs 2x2 servers",
		Columns: []Column{{"model", "%s"}, {"one_server", "%.1f"}, {"two_by_two", "%.1f"}, {"slowdown", "%.2f"}},
	}
	oneServer := cluster.Alloc{0: 4}
	twoByTwo := cluster.Alloc{0: 2, 1: 2}
	for _, m := range placement.Figure2Models() {
		one := m.Throughput(topo, oneServer)
		two := m.Throughput(topo, twoByTwo)
		t.Rows = append(t.Rows, []any{m.Name, one, two, two / one})
	}
	return []Table{t}, nil
}

// themisSweep runs Themis alone on the default simulated workload once per
// value of a one-parameter sweep: point gives the value's arbiter
// configuration (whose lease the run also uses) and bid-valuation error θ.
// It returns extract averaged over the repeat seeds, one vector per value.
func (o Options) themisSweep(name string, values []float64, point func(v float64) (core.Config, float64), extract func(*sim.Result) []float64) ([][]float64, error) {
	topo := o.simTopology()
	return o.sweepAverage(len(values),
		func(p int, seed int64) []RunSpec {
			cfg, theta := point(values[p])
			run := o
			run.LeaseDuration = cfg.LeaseDuration
			return []RunSpec{run.spec(
				fmt.Sprintf("%s=%v seed=%d", name, values[p], seed), topo,
				func() ([]*workload.App, error) { return o.simWorkload(seed, 0.4, 1) },
				func() (sim.Policy, error) {
					policy, err := schedulers.NewThemis(cfg)
					if err != nil {
						return nil, err
					}
					policy.BidErrorTheta = theta
					policy.ErrorSeed = seed + int64(theta*1000)
					return policy, nil
				},
			)}
		},
		func(cell []*sim.Result) []float64 { return extract(cell[0]) })
}

// fairnessKnobs is the f sweep of Figures 4a and 4b.
var fairnessKnobs = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// knobSweep runs Themis at each fairness knob f on the 256-GPU simulated
// cluster. Figure 4a is the max/median/min finish-time fairness across apps;
// Figure 4b is the total GPU time (lower means the cluster was used more
// efficiently for the same workload).
func knobSweep(opts Options) ([]Table, error) {
	avgs, err := opts.themisSweep("figure 4 at f", fairnessKnobs,
		func(f float64) (core.Config, float64) {
			cfg := opts.themisConfig()
			cfg.FairnessKnob = f
			return cfg, 0
		},
		func(res *sim.Result) []float64 {
			return []float64{metrics.MaxFairness(res), metrics.MedianFairness(res), metrics.MinFairness(res), metrics.GPUTime(res)}
		})
	if err != nil {
		return nil, err
	}
	fig4a := Table{
		Name:    "4a",
		Title:   "Figure 4a: finish-time fairness vs fairness knob f",
		Columns: []Column{{"f", "%.1f"}, {"max_rho", "%.3f"}, {"median_rho", "%.3f"}, {"min_rho", "%.3f"}},
	}
	fig4b := Table{
		Name:    "4b",
		Title:   "Figure 4b: GPU time (GPU-minutes) vs fairness knob f",
		Columns: []Column{{"f", "%.1f"}, {"gpu_time_min", "%.0f"}},
	}
	for p, f := range fairnessKnobs {
		avg := avgs[p]
		fig4a.Rows = append(fig4a.Rows, []any{f, avg[0], avg[1], avg[2]})
		fig4b.Rows = append(fig4b.Rows, []any{f, avg[3]})
	}
	return []Table{fig4a, fig4b}, nil
}

// leaseLengths is the lease-duration sweep of Figure 4c (minutes).
var leaseLengths = []float64{5, 10, 20, 30, 40}

// figure4c is Figure 4c: max finish-time fairness as the lease duration
// grows, at the default fairness knob.
func figure4c(opts Options) ([]Table, error) {
	avgs, err := opts.themisSweep("figure 4c at lease", leaseLengths,
		func(lease float64) (core.Config, float64) {
			cfg := opts.themisConfig()
			cfg.LeaseDuration = lease
			return cfg, 0
		},
		func(res *sim.Result) []float64 { return []float64{metrics.MaxFairness(res)} })
	if err != nil {
		return nil, err
	}
	t := Table{
		Name:    "4c",
		Title:   "Figure 4c: max finish-time fairness vs lease duration",
		Columns: []Column{{"lease_min", "%.0f"}, {"max_rho", "%.3f"}},
	}
	for p, lease := range leaseLengths {
		t.Rows = append(t.Rows, []any{lease, avgs[p][0]})
	}
	return []Table{t}, nil
}

// figure8 is Figure 8: the GPU-allocation timelines of a short and a long
// app that arrive together and compete under Themis.
func figure8(opts Options) ([]Table, error) {
	res, err := figure8Sim(opts)
	if err != nil {
		return nil, err
	}
	t := Table{
		Name:    "8",
		Title:   "Figure 8: GPU allocation timeline for a short and a long app",
		Columns: []Column{{"app", "%s"}, {"time_min", "%.1f"}, {"gpus", "%d"}},
	}
	for _, app := range []workload.AppID{"short", "long"} {
		for _, e := range res.TimelineFor(app) {
			t.Rows = append(t.Rows, []any{string(app), e.Time, e.GPUs})
		}
	}
	return []Table{t}, nil
}

// figure8Sim runs the scenario the paper describes for Figure 8: two
// single-job apps with a 3× difference in running time and equal placement
// sensitivity arriving at t=40 into a small busy cluster, scheduled by
// Themis.
func figure8Sim(opts Options) (*sim.Result, error) {
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: 4, GPUs: 4, SlotSize: 2, GPU: cluster.GPUTypeP100}},
		MachinesPerRack: 2,
	}.Build()
	if err != nil {
		return nil, err
	}
	mkApp := func(id string, submit, work float64, n int) *workload.App {
		var jobs []*workload.Job
		for i := 0; i < n; i++ {
			j := workload.NewJob(workload.AppID(id), i, work, 4)
			j.Quality = float64(i) / float64(n+1)
			j.Seed = int64(i + 7)
			jobs = append(jobs, j)
		}
		return workload.NewApp(workload.AppID(id), submit, placement.VGG16, jobs)
	}
	// Background load occupying the cluster before the two apps arrive.
	apps := []*workload.App{
		mkApp("bg-0", 0, 480, 2),
		mkApp("bg-1", 0, 480, 2),
		mkApp("short", 40, 160, 1),
		mkApp("long", 40, 480, 1),
	}
	runOpts := opts
	runOpts.LeaseDuration = 20
	return runOpts.spec("figure 8", topo,
		func() ([]*workload.App, error) { return apps, nil },
		func() (sim.Policy, error) { return schedulers.NewThemis(opts.themisConfig()) },
	).run(context.Background())
}

// SchedulerSet returns the comparison policies of §8.3 keyed by the paper's
// names, constructed fresh (policies hold per-run agent state). Factories
// return an error when the Themis configuration is invalid.
func SchedulerSet(themisCfg core.Config) map[string]func() (sim.Policy, error) {
	return map[string]func() (sim.Policy, error){
		"themis":   func() (sim.Policy, error) { return schedulers.NewThemis(themisCfg) },
		"gandiva":  func() (sim.Policy, error) { return schedulers.NewGandiva(), nil },
		"slaq":     func() (sim.Policy, error) { return schedulers.NewSLAQ(), nil },
		"tiresias": func() (sim.Policy, error) { return schedulers.NewTiresias(), nil },
	}
}

// schemeOrder is the presentation order of the paper's comparison plots.
var schemeOrder = []string{"themis", "gandiva", "slaq", "tiresias"}
