// Package experiments reproduces the paper's evaluation: one Table per
// figure, holding the data series the figure plots, produced by running the
// event-driven simulator with the relevant workload and scheduler
// configuration, plus a scorecard table of the paper's claims. The
// cmd/expdriver binary and the repository's benchmarks read these tables.
package experiments

import (
	"context"
	"fmt"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/sim"
	"themis/internal/workload"
)

// Options control the scale and parameters of the experiment runs. The
// defaults mirror the paper's setup; Quick returns a scaled-down variant for
// tests and benchmarks that must complete in seconds while preserving the
// figures' qualitative shapes.
type Options struct {
	// Seed drives workload generation; each experiment derives per-run seeds
	// from it deterministically.
	Seed int64
	// SimApps is the number of apps submitted to the 256-GPU simulated
	// cluster experiments.
	SimApps int
	// TestbedApps is the number of apps submitted to the 50-GPU testbed
	// experiments (Figures 5–8).
	TestbedApps int
	// JobsPerAppMedian controls workload size (the paper's trace median is 23).
	JobsPerAppMedian float64
	// MaxJobsPerApp caps trials per app.
	MaxJobsPerApp int
	// SimDurationScale scales job durations in simulated-cluster
	// experiments (the paper replays them unscaled).
	SimDurationScale float64
	// TestbedDurationScale scales job durations in testbed experiments; the
	// paper scales its testbed runs down 5× (0.2).
	TestbedDurationScale float64
	// SimClusterScale shrinks the 256-GPU simulated cluster proportionally
	// (1 = the paper's cluster); quick configurations use a quarter-scale
	// cluster so contention — which drives every fairness result — stays in
	// the paper's regime with fewer apps.
	SimClusterScale float64
	// MeanInterArrival is the app inter-arrival mean in minutes.
	MeanInterArrival float64
	// LeaseDuration is the default lease length in minutes.
	LeaseDuration float64
	// FairnessKnob is Themis's default f.
	FairnessKnob float64
	// RestartOverhead is the checkpoint/restart pause in minutes.
	RestartOverhead float64
	// Horizon caps each simulation (minutes of simulated time); 0 = none.
	Horizon float64
	// Repeats is how many workload seeds each sweep point is averaged over.
	// The paper replays a single trace; averaging over a few seeds keeps the
	// scaled-down configurations' trends stable. Zero means 1.
	Repeats int
	// Workers bounds the sweep engine's worker pool: every figure's grid of
	// {policy, seed, parameter} simulation runs is fanned across this many
	// goroutines. Zero (the default) uses GOMAXPROCS; 1 forces sequential
	// execution. Results are deterministic regardless of the setting.
	Workers int
}

// Default returns the paper-fidelity options (§8.1): 256-GPU cluster
// experiments replay the full trace shape; testbed experiments use the
// paper's 5× duration scale-down.
func Default() Options {
	return Options{
		Seed:                 42,
		SimApps:              50,
		TestbedApps:          30,
		JobsPerAppMedian:     23,
		MaxJobsPerApp:        98,
		SimDurationScale:     1,
		TestbedDurationScale: 0.2,
		SimClusterScale:      1,
		MeanInterArrival:     20,
		LeaseDuration:        20,
		FairnessKnob:         0.8,
		RestartOverhead:      0.75,
		Horizon:              50000,
		Repeats:              1,
	}
}

// Quick returns options scaled down for fast benchmarks and CI: fewer apps
// and trials and shorter jobs, but the same cluster topologies, policies and
// parameter sweeps, so every figure's qualitative shape is preserved.
func Quick() Options {
	return Options{
		Seed:                 42,
		SimApps:              16,
		TestbedApps:          14,
		JobsPerAppMedian:     5,
		MaxJobsPerApp:        12,
		SimDurationScale:     0.3,
		TestbedDurationScale: 0.3,
		SimClusterScale:      0.25,
		MeanInterArrival:     3,
		LeaseDuration:        10,
		FairnessKnob:         0.8,
		RestartOverhead:      0.25,
		Horizon:              20000,
		Repeats:              3,
	}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.SimApps <= 0 || o.TestbedApps <= 0 {
		return fmt.Errorf("experiments: app counts must be positive")
	}
	if o.SimDurationScale <= 0 || o.TestbedDurationScale <= 0 || o.MeanInterArrival <= 0 || o.LeaseDuration <= 0 {
		return fmt.Errorf("experiments: scales and durations must be positive")
	}
	if o.SimClusterScale <= 0 || o.SimClusterScale > 1 {
		return fmt.Errorf("experiments: sim cluster scale outside (0,1]")
	}
	if o.FairnessKnob < 0 || o.FairnessKnob > 1 {
		return fmt.Errorf("experiments: fairness knob outside [0,1]")
	}
	if o.Workers < 0 {
		return fmt.Errorf("experiments: negative worker count")
	}
	return nil
}

// repeatSeeds returns the workload seeds each sweep point averages over.
func (o Options) repeatSeeds() []int64 {
	n := o.Repeats
	if n <= 0 {
		n = 1
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = o.Seed + int64(i)*7919 // distinct, deterministic seeds
	}
	return seeds
}

// spec builds a RunSpec carrying the options' simulation knobs.
func (o Options) spec(name string, topo *cluster.Topology, apps func() ([]*workload.App, error), policy func() (sim.Policy, error)) RunSpec {
	return RunSpec{
		Name:            name,
		Topology:        topo,
		Workload:        apps,
		Policy:          policy,
		LeaseDuration:   o.LeaseDuration,
		RestartOverhead: o.RestartOverhead,
		Horizon:         o.Horizon,
	}
}

// sweepAverage evaluates a figure's sweep: for every (point, repeat-seed)
// cell, build returns the cell's simulation runs; the whole grid is fanned
// across the sweep engine's worker pool; and extract reduces each cell's
// results to a metric vector, which is then averaged element-wise over the
// point's repeat seeds, in seed order.
func (o Options) sweepAverage(points int, build func(point int, seed int64) []RunSpec, extract func(cell []*sim.Result) []float64) ([][]float64, error) {
	seeds := o.repeatSeeds()
	type cellRef struct{ off, n int }
	cells := make([]cellRef, points*len(seeds))
	var specs []RunSpec
	for p := 0; p < points; p++ {
		for si, seed := range seeds {
			cs := build(p, seed)
			cells[p*len(seeds)+si] = cellRef{off: len(specs), n: len(cs)}
			specs = append(specs, cs...)
		}
	}
	results, err := Sweep(context.Background(), o.Workers, specs)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, points)
	for p := 0; p < points; p++ {
		var sum []float64
		for si := range seeds {
			ref := cells[p*len(seeds)+si]
			vals := extract(results[ref.off : ref.off+ref.n])
			if sum == nil {
				sum = make([]float64, len(vals))
			}
			if len(vals) != len(sum) {
				return nil, fmt.Errorf("experiments: inconsistent metric vector lengths (%d vs %d)", len(vals), len(sum))
			}
			for i, v := range vals {
				sum[i] += v
			}
		}
		for i := range sum {
			sum[i] /= float64(len(seeds))
		}
		out[p] = sum
	}
	return out, nil
}

// simTopology returns the simulated cluster for these options: the paper's
// 256-GPU heterogeneous cluster, or a proportionally scaled-down version of
// it when SimClusterScale < 1.
func (o Options) simTopology() *cluster.Topology {
	if o.SimClusterScale >= 1 {
		return cluster.SimulationCluster()
	}
	scale := func(n int) int {
		s := int(float64(n)*o.SimClusterScale + 0.5)
		if s < 1 {
			s = 1
		}
		return s
	}
	topo, err := cluster.Config{
		MachineSpecs: []cluster.MachineSpec{
			{Count: scale(48), GPUs: 4, SlotSize: 2, GPU: cluster.GPUTypeP100},
			{Count: scale(24), GPUs: 2, SlotSize: 2, GPU: cluster.GPUTypeV100},
			{Count: scale(16), GPUs: 1, SlotSize: 1, GPU: cluster.GPUTypeK80},
		},
		MachinesPerRack: 16,
	}.Build()
	if err != nil {
		panic("experiments: building scaled simulation cluster: " + err.Error())
	}
	return topo
}

// generatorConfig builds a workload generator config from the options.
func (o Options) generatorConfig(numApps int, seed int64, networkFraction, contention, durationScale float64) workload.GeneratorConfig {
	cfg := workload.DefaultGeneratorConfig()
	cfg.Seed = seed
	cfg.NumApps = numApps
	cfg.MeanInterArrival = o.MeanInterArrival
	cfg.ContentionFactor = contention
	cfg.FractionNetworkIntensive = networkFraction
	cfg.JobsPerAppMedian = o.JobsPerAppMedian
	cfg.MaxJobsPerApp = o.MaxJobsPerApp
	cfg.DurationScale = durationScale
	return cfg
}

// simWorkload generates a simulated-cluster workload with the given
// network-intensive fraction and contention factor (the default mix is
// 60:40 compute:network at 1× contention).
func (o Options) simWorkload(seed int64, networkFraction, contention float64) ([]*workload.App, error) {
	return workload.Generate(o.generatorConfig(o.SimApps, seed, networkFraction, contention, o.SimDurationScale))
}

// testbedWorkload generates the testbed-scale workload used by Figures 5–8.
func (o Options) testbedWorkload(seed int64) ([]*workload.App, error) {
	return workload.Generate(o.generatorConfig(o.TestbedApps, seed, 0.4, 1, o.TestbedDurationScale))
}

// themisConfig returns the Themis arbiter configuration for these options.
func (o Options) themisConfig() core.Config {
	return core.Config{FairnessKnob: o.FairnessKnob, LeaseDuration: o.LeaseDuration}
}
