package themis

import (
	"context"
	"fmt"

	"themis/internal/experiments"
)

// SweepSpec names one simulation configuration within a sweep: the Options
// are exactly what NewSimulation would receive. Because simulations are
// single-use, each spec is constructed — workload generation included —
// inside its worker, so seeded specs produce identical Reports regardless
// of worker count or scheduling.
type SweepSpec struct {
	// Name labels the run in results and errors (e.g. "themis/f=0.8/seed=42").
	Name string
	// Options configure the run, as in NewSimulation.
	Options []Option
}

// SweepResult pairs one completed sweep run with its spec's name. Results
// are returned in spec order.
type SweepResult struct {
	Name   string
	Report *Report
}

// RunSweep builds and runs one simulation per spec, fanning the grid across
// a bounded worker pool. It is the engine behind the paper's §8 evaluation
// sweeps (many policies × seeds × workloads) and the recommended way to run
// parameter studies against the public API.
//
// workers bounds the pool; zero or negative uses GOMAXPROCS. Results align
// one-to-one with specs irrespective of completion order. The first
// configuration or simulation error cancels the remaining runs and is
// returned with its spec's name; cancelling ctx aborts the sweep, stopping
// in-flight simulations at their next decision point.
func RunSweep(ctx context.Context, workers int, specs []SweepSpec) ([]SweepResult, error) {
	results := make([]SweepResult, len(specs))
	err := experiments.RunGrid(ctx, workers, len(specs), func(ctx context.Context, i int) error {
		spec := specs[i]
		sim, err := NewSimulation(spec.Options...)
		if err != nil {
			return fmt.Errorf("themis: sweep %q: %w", specName(spec, i), err)
		}
		report, err := sim.Run(ctx)
		if err != nil {
			return fmt.Errorf("themis: sweep %q: %w", specName(spec, i), err)
		}
		results[i] = SweepResult{Name: spec.Name, Report: report}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// specName labels a spec in errors, falling back to its index.
func specName(spec SweepSpec, i int) string {
	if spec.Name != "" {
		return spec.Name
	}
	return fmt.Sprintf("spec %d", i)
}

// Grid declaratively spans a sweep over the built-in tables: the cross
// product of a policy axis, a cluster axis, a scenario axis and a seed axis,
// sharing a base option list.
// It is the idiomatic way to fan "every scheduler × every workload family"
// through RunSweep:
//
//	specs, err := themis.Grid{
//		Policies:  themis.Policies(),
//		Scenarios: []string{"paper-mix", "diurnal", "heavy-tailed"},
//		Seeds:     []int64{1, 2, 3},
//		Params:    themis.ScenarioParams{NumApps: 50},
//	}.Specs()
//	results, err := themis.RunSweep(ctx, 0, specs)
type Grid struct {
	// Policies is the policy axis; empty means just the default ("themis").
	Policies []string
	// Clusters is the topology axis, naming built-in clusters (see
	// Clusters); empty means the cluster comes from Base or the default.
	Clusters []string
	// Scenarios is the workload axis, naming built-in scenarios; empty
	// means the workload comes from Base (e.g. a WithTrace option).
	Scenarios []string
	// Seeds is the seed axis; empty means just seed 1. Each seed feeds both
	// WithSeed and the scenario generation.
	Seeds []int64
	// Params is applied to every scenario cell (the cell's seed wins).
	Params ScenarioParams
	// Base options are prepended to every spec: cluster, horizon, knobs —
	// and the workload source when the Scenarios axis is empty.
	Base []Option
}

// Specs expands the grid into RunSweep specs, ordered policy-major, then
// cluster, then scenario, then seed. Spec names are
// "policy/cluster/scenario/seed=N" with empty axes omitted.
func (g Grid) Specs() ([]SweepSpec, error) {
	for _, p := range g.Policies {
		if _, err := policies.lookup(p); err != nil {
			return nil, err
		}
	}
	for _, cl := range g.Clusters {
		if _, err := clusters.lookup(cl); cl != "" && err != nil {
			return nil, err
		}
	}
	for _, sc := range g.Scenarios {
		if _, err := scenarios.lookup(sc); sc != "" && err != nil {
			return nil, err
		}
	}
	policyAxis := g.Policies
	if len(policyAxis) == 0 {
		policyAxis = []string{"themis"}
	}
	clusterAxis := g.Clusters
	if len(clusterAxis) == 0 {
		clusterAxis = []string{""}
	}
	scenarioAxis := g.Scenarios
	if len(scenarioAxis) == 0 {
		scenarioAxis = []string{""}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	specs := make([]SweepSpec, 0, len(policyAxis)*len(clusterAxis)*len(scenarioAxis)*len(seeds))
	for _, policy := range policyAxis {
		for _, cl := range clusterAxis {
			for _, sc := range scenarioAxis {
				for _, seed := range seeds {
					name := policy
					if cl != "" {
						name += "/" + cl
					}
					if sc != "" {
						name += "/" + sc
					}
					name += fmt.Sprintf("/seed=%d", seed)
					opts := make([]Option, 0, len(g.Base)+4)
					opts = append(opts, g.Base...)
					opts = append(opts, WithPolicy(policy), WithSeed(seed))
					if cl != "" {
						opts = append(opts, WithCluster(cl))
					}
					if sc != "" {
						params := g.Params
						params.Seed = seed
						opts = append(opts, WithScenario(sc, params))
					}
					specs = append(specs, SweepSpec{Name: name, Options: opts})
				}
			}
		}
	}
	return specs, nil
}
