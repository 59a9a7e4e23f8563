package experiments

import (
	"fmt"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/metrics"
	"themis/internal/placement"
	"themis/internal/schedulers"
	"themis/internal/sim"
	"themis/internal/workload"
)

// Figure1Result reproduces Figure 1: the CDF of task durations in the trace.
type Figure1Result struct {
	Durations []float64 // minutes
	Fractions []float64
	Stats     workload.Stats
}

// Figure1 generates a trace with the paper's distributional parameters and
// returns the task-duration CDF. Duration scaling is not applied so the
// x-axis is directly comparable with the paper's (0–1000 minutes).
func Figure1(opts Options) (Figure1Result, error) {
	if err := opts.Validate(); err != nil {
		return Figure1Result{}, err
	}
	cfg := opts.generatorConfig(max(opts.SimApps, 200), opts.Seed, 0.4, 1, 1)
	apps, err := workload.Generate(cfg)
	if err != nil {
		return Figure1Result{}, err
	}
	durations, fractions := workload.DurationCDF(apps, 100)
	return Figure1Result{Durations: durations, Fractions: fractions, Stats: workload.Summarize(apps)}, nil
}

// Figure2Row is one bar group of Figure 2: a model's aggregate throughput
// with 4 GPUs on one server vs 4 GPUs across two servers (2×2).
type Figure2Row struct {
	Model           string
	OneServer       float64 // images/sec
	TwoByTwoServers float64 // images/sec
	Slowdown        float64 // TwoByTwo / OneServer
}

// Figure2 evaluates the placement-sensitivity model for the five models the
// paper profiles.
func Figure2() []Figure2Row {
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: 2, GPUs: 4, SlotSize: 4, GPU: cluster.GPUTypeP100}},
		MachinesPerRack: 2,
	}.Build()
	if err != nil {
		panic("experiments: building Figure 2 topology: " + err.Error())
	}
	oneServer := cluster.Alloc{0: 4}
	twoByTwo := cluster.Alloc{0: 2, 1: 2}
	var rows []Figure2Row
	for _, m := range placement.Figure2Models() {
		one := m.Throughput(topo, oneServer)
		two := m.Throughput(topo, twoByTwo)
		rows = append(rows, Figure2Row{Model: m.Name, OneServer: one, TwoByTwoServers: two, Slowdown: two / one})
	}
	return rows
}

// Figure4aRow is one point of Figure 4a: finish-time fairness vs the
// fairness knob f.
type Figure4aRow struct {
	F              float64
	MaxFairness    float64
	MedianFairness float64
	MinFairness    float64
}

// Figure4aKnobs is the set of f values swept by Figures 4a and 4b.
var Figure4aKnobs = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// Figure4a sweeps the fairness knob on the 256-GPU simulated cluster and
// reports the max/median/min finish-time fairness across apps. The knob ×
// seed grid runs through the parallel sweep engine.
func Figure4a(opts Options) ([]Figure4aRow, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	topo := opts.simTopology()
	avgs, err := opts.sweepAverage(len(Figure4aKnobs),
		func(p int, seed int64) []RunSpec {
			f := Figure4aKnobs[p]
			cfg := opts.themisConfig()
			cfg.FairnessKnob = f
			return []RunSpec{opts.spec(
				fmt.Sprintf("figure 4a at f=%v seed=%d", f, seed), topo,
				func() ([]*workload.App, error) { return opts.simWorkload(seed) },
				func() (sim.Policy, error) { return schedulers.NewThemis(cfg) },
			)}
		},
		func(p int, cell []*sim.Result) ([]float64, error) {
			res := cell[0]
			return []float64{metrics.MaxFairness(res), metrics.MedianFairness(res), metrics.MinFairness(res)}, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []Figure4aRow
	for p, f := range Figure4aKnobs {
		rows = append(rows, Figure4aRow{F: f, MaxFairness: avgs[p][0], MedianFairness: avgs[p][1], MinFairness: avgs[p][2]})
	}
	return rows, nil
}

// Figure4bRow is one point of Figure 4b: cluster GPU time vs f.
type Figure4bRow struct {
	F       float64
	GPUTime float64 // GPU-minutes
}

// Figure4b sweeps the fairness knob and reports total GPU time (lower means
// the cluster was used more efficiently for the same workload).
func Figure4b(opts Options) ([]Figure4bRow, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	topo := opts.simTopology()
	avgs, err := opts.sweepAverage(len(Figure4aKnobs),
		func(p int, seed int64) []RunSpec {
			f := Figure4aKnobs[p]
			cfg := opts.themisConfig()
			cfg.FairnessKnob = f
			return []RunSpec{opts.spec(
				fmt.Sprintf("figure 4b at f=%v seed=%d", f, seed), topo,
				func() ([]*workload.App, error) { return opts.simWorkload(seed) },
				func() (sim.Policy, error) { return schedulers.NewThemis(cfg) },
			)}
		},
		func(p int, cell []*sim.Result) ([]float64, error) {
			return []float64{metrics.GPUTime(cell[0])}, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []Figure4bRow
	for p, f := range Figure4aKnobs {
		rows = append(rows, Figure4bRow{F: f, GPUTime: avgs[p][0]})
	}
	return rows, nil
}

// Figure4cRow is one point of Figure 4c: max finish-time fairness vs lease
// duration.
type Figure4cRow struct {
	LeaseMinutes float64
	MaxFairness  float64
}

// Figure4cLeases is the lease-duration sweep of Figure 4c (minutes).
var Figure4cLeases = []float64{5, 10, 20, 30, 40}

// Figure4c sweeps the lease duration at the default fairness knob.
func Figure4c(opts Options) ([]Figure4cRow, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	topo := opts.simTopology()
	avgs, err := opts.sweepAverage(len(Figure4cLeases),
		func(p int, seed int64) []RunSpec {
			lease := Figure4cLeases[p]
			cfg := opts.themisConfig()
			cfg.LeaseDuration = lease
			runOpts := opts
			runOpts.LeaseDuration = lease
			return []RunSpec{runOpts.spec(
				fmt.Sprintf("figure 4c at lease=%v seed=%d", lease, seed), topo,
				func() ([]*workload.App, error) { return opts.simWorkload(seed) },
				func() (sim.Policy, error) { return schedulers.NewThemis(cfg) },
			)}
		},
		func(p int, cell []*sim.Result) ([]float64, error) {
			return []float64{metrics.MaxFairness(cell[0])}, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []Figure4cRow
	for p, lease := range Figure4cLeases {
		rows = append(rows, Figure4cRow{LeaseMinutes: lease, MaxFairness: avgs[p][0]})
	}
	return rows, nil
}

// Figure8Result reproduces Figure 8: the GPU-allocation timelines of a short
// and a long app that arrive together and compete under Themis.
type Figure8Result struct {
	ShortApp workload.AppID
	LongApp  workload.AppID
	Short    []sim.AllocationEvent
	Long     []sim.AllocationEvent
	Result   *metrics.Summary
}

// Figure8 hand-builds the scenario the paper describes: two single-job apps
// with a 3× difference in running time and equal placement sensitivity
// arriving at t=40 into a small busy cluster, scheduled by Themis.
func Figure8(opts Options) (Figure8Result, error) {
	if err := opts.Validate(); err != nil {
		return Figure8Result{}, err
	}
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: 4, GPUs: 4, SlotSize: 2, GPU: cluster.GPUTypeP100}},
		MachinesPerRack: 2,
	}.Build()
	if err != nil {
		return Figure8Result{}, err
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
	policy, err := schedulers.NewThemis(opts.themisConfig())
	if err != nil {
		return Figure8Result{}, err
	}
	runOpts := opts
	runOpts.LeaseDuration = 20
	res, err := runOpts.runSim(topo, apps, policy)
	if err != nil {
		return Figure8Result{}, err
	}
	sum := metrics.Summarize(res)
	return Figure8Result{
		ShortApp: "short",
		LongApp:  "long",
		Short:    res.TimelineFor("short"),
		Long:     res.TimelineFor("long"),
		Result:   &sum,
	}, nil
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

// SchemeOrder is the presentation order used by the paper's comparison plots.
var SchemeOrder = []string{"themis", "gandiva", "slaq", "tiresias"}
