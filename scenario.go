package themis

import (
	"fmt"

	"themis/internal/workload"
)

// ScenarioParams are the runtime knobs of a scenario: the sweep- and
// CLI-facing subset of workload generation (how many apps, which seed, how
// hard the cluster is pressed). Zero-valued fields keep the scenario's own
// defaults, so ScenarioParams{} reproduces the scenario as defined.
type ScenarioParams struct {
	// Seed makes generation deterministic; 0 keeps the scenario's default
	// (and under WithScenario inherits the simulation's WithSeed).
	Seed int64
	// NumApps overrides the number of generated applications.
	NumApps int
	// DurationScale scales all task durations (0.2 for the paper's 5×
	// scale-down).
	DurationScale float64
	// ContentionFactor scales the arrival rate, as in the Figure 10 sweep.
	ContentionFactor float64
	// MeanInterArrival overrides the mean inter-arrival time in minutes.
	MeanInterArrival float64
	// NetworkFraction overrides the fraction of network-intensive apps, as
	// in the Figure 9 sweep. A pointer because 0 (all compute-intensive) is
	// a meaningful override; nil keeps the scenario's default.
	NetworkFraction *float64
}

// Apply returns cfg with p's non-zero fields written over it: the one place
// runtime knobs meet a scenario composition, whether a built-in scenario or a
// fitted FitReport.Config.
func (p ScenarioParams) Apply(cfg ScenarioConfig) ScenarioConfig {
	if p.Seed != 0 {
		cfg.Seed = p.Seed
	}
	if p.NumApps != 0 {
		cfg.NumApps = p.NumApps
	}
	if p.DurationScale != 0 {
		cfg.DurationScale = p.DurationScale
	}
	if p.ContentionFactor != 0 {
		cfg.ContentionFactor = p.ContentionFactor
	}
	if p.MeanInterArrival != 0 {
		cfg.MeanInterArrival = p.MeanInterArrival
	}
	if p.NetworkFraction != nil {
		cfg.FractionNetworkIntensive = *p.NetworkFraction
	}
	return cfg
}

type scenarioEntry struct {
	description string
	config      ScenarioConfig
}

// scenarios is the built-in scenario library: the paper's synthetic mix plus
// the workload families production traces exhibit.
var scenarios = newRegistry("scenario", builtinScenarios())

func builtinScenarios() map[string]scenarioEntry {
	base := func() ScenarioConfig {
		return ScenarioConfig{GeneratorConfig: workload.DefaultGeneratorConfig()}
	}
	diurnal := base()
	diurnal.Arrival = ArrivalDiurnal
	heavy := base()
	heavy.JobSize = SizePareto
	bursty := base()
	bursty.Arrival = ArrivalBursty
	gangs := base()
	gangs.GangSizes = []GangMix{{Size: 1, Weight: 2}, {Size: 2, Weight: 3}, {Size: 4, Weight: 4}, {Size: 8, Weight: 1}}
	return map[string]scenarioEntry{
		"paper-mix":    {"the paper's §8.1 synthetic mix: Poisson arrivals, lognormal durations, 2/4-GPU gangs", base()},
		"diurnal":      {"paper mix under a day-night arrival cycle (sinusoidal rate, 4:1 peak-to-trough)", diurnal},
		"heavy-tailed": {"paper mix with Pareto(α=1.5) task durations: mice jobs plus elephant stragglers", heavy},
		"bursty":       {"paper mix with half the apps arriving in near-simultaneous load spikes", bursty},
		"mixed-gangs":  {"paper mix over a 1/2/4/8-GPU gang-size population stressing the packing path", gangs},
	}
}

// Scenarios lists the built-in scenario names, sorted.
func Scenarios() []string { return scenarios.names() }

// DescribeScenario returns a built-in scenario's one-line description.
func DescribeScenario(name string) (string, error) {
	entry, err := scenarios.lookup(name)
	return entry.description, err
}

// GenerateScenario materialises a built-in scenario's workload: "paper-mix",
// "diurnal", "heavy-tailed", "bursty" or "mixed-gangs". The optional params
// override the scenario's app count, seed and load knobs; at most one params
// value is accepted. Any other composition, a fitted one included, goes
// through ComposeWorkload.
func GenerateScenario(name string, params ...ScenarioParams) ([]*App, error) {
	if len(params) > 1 {
		return nil, fmt.Errorf("themis: GenerateScenario takes at most one params, got %d", len(params))
	}
	var p ScenarioParams
	if len(params) == 1 {
		p = params[0]
	}
	entry, err := scenarios.lookup(name)
	if err != nil {
		return nil, err
	}
	apps, err := workload.GenerateScenario(p.Apply(entry.config))
	if err != nil {
		return nil, fmt.Errorf("themis: scenario %q: %w", name, err)
	}
	if len(apps) == 0 {
		return nil, fmt.Errorf("themis: scenario %q produced no apps", name)
	}
	return apps, nil
}

// ComposeWorkload generates a workload from an explicit scenario composition
// (arrival pattern × job-size law × gang mix), such as a FitReport's Config
// with ScenarioParams.Apply over it. Zero-valued knobs keep the paper's
// behaviour, as in GenerateWorkload. Feed the apps to WithApps.
func ComposeWorkload(cfg ScenarioConfig) ([]*App, error) {
	return workload.GenerateScenario(cfg)
}
