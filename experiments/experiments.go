// Package experiments is the public face of the paper's evaluation harness:
// one table per figure of Themis's §8, holding the data series the figure
// plots, plus the paper's claims checked against those tables. It re-exports
// the internal experiment engine so downstream tools (cmd/expdriver, plotting
// scripts) depend only on the public module surface.
package experiments

import (
	"context"
	"fmt"

	"themis"
	"themis/internal/experiments"
	"themis/internal/sim"
)

// Options control the scale and parameters of the experiment runs,
// including the sweep engine's worker-pool size (Options.Workers).
type Options = experiments.Options

// RunSpec describes one simulation run within a Sweep grid.
type RunSpec = experiments.RunSpec

// Sweep fans a grid of simulation runs across a bounded worker pool
// (workers <= 0 uses GOMAXPROCS) with deterministic, spec-aligned results.
// Every figure table in this package is built from runs through Sweep.
// RunSpec's fields are spelled in internal types, but they are the same
// types the root facade aliases (themis.Topology, themis.SchedulerPolicy,
// themis.App, themis.Tuner), so downstream code builds specs from the
// public names. Most studies over the public Report type are simpler with
// themis.RunSweep.
func Sweep(ctx context.Context, workers int, specs []RunSpec) ([]*sim.Result, error) {
	return experiments.Sweep(ctx, workers, specs)
}

// Default returns the paper-fidelity options (§8.1).
func Default() Options { return experiments.Default() }

// Quick returns options scaled down for fast benchmarks and CI while
// preserving every figure's qualitative shape.
func Quick() Options { return experiments.Quick() }

// A Table is one figure of the evaluation as data: columns that each carry a
// name and a fmt verb, rows of raw cells (float64, int or string), and "#"
// notes whose numbers stay in Note.Args. Table.String prints it as expdriver
// does.
type (
	Table  = experiments.Table
	Column = experiments.Column
	Note   = experiments.Note
)

// Names lists every figure table ("1", "2", "4a" … "11") in the order
// `expdriver -fig all` prints them.
func Names() []string { return experiments.Names() }

// Tables builds the named tables in request order, running each experiment
// at most once per call. Besides Names, "scorecard" names the table of the
// paper's claims checked against the figure tables.
func Tables(opts Options, names ...string) ([]Table, error) {
	return experiments.Tables(opts, names...)
}

// TraceStudyRow is one cell of a TraceStudy: a policy replaying the trace,
// with the run's full Report.
type TraceStudyRow struct {
	Policy string
	Report *themis.Report
}

// TraceStudy replays one captured or imported trace under each named policy
// through the parallel sweep engine — the paper's §8.1 replay methodology
// over any trace file, including v2 traces whose placement blocks carry
// locality constraints (each run rematerialises fresh apps from the trace,
// so runs never share mutable state). An empty policy list defaults to every
// registered policy. Rows come back in policy order regardless of worker
// count.
func TraceStudy(ctx context.Context, workers int, tr themis.Trace, policies []string, base ...themis.Option) ([]TraceStudyRow, error) {
	if len(policies) == 0 {
		policies = themis.Policies()
	}
	specs := make([]themis.SweepSpec, 0, len(policies))
	for _, policy := range policies {
		opts := append(append([]themis.Option{}, base...), themis.WithPolicy(policy), themis.WithTrace(tr))
		specs = append(specs, themis.SweepSpec{Name: policy, Options: opts})
	}
	results, err := themis.RunSweep(ctx, workers, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: trace study: %w", err)
	}
	rows := make([]TraceStudyRow, len(results))
	for i, res := range results {
		rows[i] = TraceStudyRow{Policy: policies[i], Report: res.Report}
	}
	return rows, nil
}

// ScenarioStudyRow is one cell of a ScenarioStudy: a policy replaying a
// registered scenario under one seed, with the run's full Report.
type ScenarioStudyRow struct {
	Policy   string
	Scenario string
	Seed     int64
	Report   *themis.Report
}

// ScenarioStudy runs every policy × scenario × seed cell of the scenario
// library through the parallel sweep engine — the evaluation the paper could
// not run: its schedulers over workload families beyond the production mix.
// Policies and scenarios name registry entries (themis.Policies,
// themis.Scenarios); empty axes default to the Themis policy, the full
// scenario library and seed 1. Rows come back policy-major in deterministic
// order regardless of worker count.
func ScenarioStudy(ctx context.Context, workers int, policies, scenarios []string, seeds []int64, params themis.ScenarioParams, base ...themis.Option) ([]ScenarioStudyRow, error) {
	if len(policies) == 0 {
		policies = []string{"themis"}
	}
	if len(scenarios) == 0 {
		scenarios = themis.Scenarios()
	}
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	specs, err := themis.Grid{
		Policies:  policies,
		Scenarios: scenarios,
		Seeds:     seeds,
		Params:    params,
		Base:      base,
	}.Specs()
	if err != nil {
		return nil, fmt.Errorf("experiments: scenario study: %w", err)
	}
	results, err := themis.RunSweep(ctx, workers, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: scenario study: %w", err)
	}
	rows := make([]ScenarioStudyRow, 0, len(results))
	i := 0
	for _, policy := range policies {
		for _, scenario := range scenarios {
			for _, seed := range seeds {
				rows = append(rows, ScenarioStudyRow{
					Policy:   policy,
					Scenario: scenario,
					Seed:     seed,
					Report:   results[i].Report,
				})
				i++
			}
		}
	}
	return rows, nil
}
