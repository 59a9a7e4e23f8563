package themis

import (
	"fmt"

	"themis/internal/workload"
)

// ScenarioParams are the runtime knobs a scenario factory receives: the
// sweep- and CLI-facing subset of workload generation (how many apps, which
// seed, how hard the cluster is pressed). Zero-valued fields keep the
// scenario's own defaults, so ScenarioParams{} reproduces the scenario as
// registered.
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

// ScenarioFactory materialises a named scenario's workload. Factories must
// be deterministic in (params.Seed, params): the sweep engine and golden
// tests rely on identical replays.
type ScenarioFactory func(params ScenarioParams) ([]*App, error)

type scenarioEntry struct {
	description string
	factory     ScenarioFactory
	// fit carries the calibration report of scenarios registered through
	// RegisterCalibratedScenario; nil for built-ins and plain registrations.
	fit *FitReport
}

var scenarios = newRegistry[scenarioEntry]("scenario")

// RegisterScenario adds a named workload scenario to the registry, making it
// available to GenerateScenario, WithScenario, the Grid sweep axis and
// cmd/tracegen. The description is surfaced by DescribeScenario and the
// tracegen list subcommand. Registering a name twice is an error.
func RegisterScenario(name, description string, factory ScenarioFactory) error {
	return registerScenario(name, description, factory, nil)
}

// registerScenario is the shared registration path; fit is non-nil for
// calibrated scenarios (RegisterCalibratedScenario) and surfaces through
// DescribeScenario and ScenarioFit.
func registerScenario(name, description string, factory ScenarioFactory, fit *FitReport) error {
	return scenarios.register(name, scenarioEntry{description: description, factory: factory, fit: fit}, factory != nil)
}

// Scenarios lists the registered scenario names, sorted.
func Scenarios() []string { return scenarios.names() }

// DescribeScenario returns a registered scenario's one-line description.
func DescribeScenario(name string) (string, error) {
	entry, err := scenarios.lookup(name)
	return entry.description, err
}

// GenerateScenario materialises a registered scenario's workload: "paper-mix",
// "diurnal", "heavy-tailed", "bursty" or "mixed-gangs" (plus anything added
// via RegisterScenario). The optional params override the scenario's app
// count, seed and load knobs; at most one params value is accepted.
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
	apps, err := entry.factory(p)
	if err != nil {
		return nil, fmt.Errorf("themis: scenario %q: %w", name, err)
	}
	if len(apps) == 0 {
		return nil, fmt.Errorf("themis: scenario %q produced no apps", name)
	}
	return apps, nil
}

// ComposeWorkload generates a workload from an explicit scenario composition
// (arrival pattern × job-size law × gang mix), without going through the
// registry. Zero-valued knobs keep the paper's behaviour, as in
// GenerateWorkload.
func ComposeWorkload(cfg ScenarioConfig) ([]*App, error) {
	return workload.GenerateScenario(cfg)
}

// ScenarioFromConfig wraps a scenario composition as a registrable factory,
// applying ScenarioParams on top of the config:
//
//	cfg := themis.ScenarioConfig{GeneratorConfig: themis.DefaultWorkloadSpec()}
//	cfg.Arrival = themis.ArrivalDiurnal
//	themis.RegisterScenario("my-diurnal", "diurnal variant", themis.ScenarioFromConfig(cfg))
func ScenarioFromConfig(cfg ScenarioConfig) ScenarioFactory {
	return func(p ScenarioParams) ([]*App, error) {
		c := cfg
		if p.Seed != 0 {
			c.Seed = p.Seed
		}
		if p.NumApps != 0 {
			c.NumApps = p.NumApps
		}
		if p.DurationScale != 0 {
			c.DurationScale = p.DurationScale
		}
		if p.ContentionFactor != 0 {
			c.ContentionFactor = p.ContentionFactor
		}
		if p.MeanInterArrival != 0 {
			c.MeanInterArrival = p.MeanInterArrival
		}
		if p.NetworkFraction != nil {
			c.FractionNetworkIntensive = *p.NetworkFraction
		}
		return workload.GenerateScenario(c)
	}
}

// The built-in scenario library ships pre-registered: the paper's synthetic
// mix plus the workload families production traces exhibit.
func init() {
	mustRegister := func(name, description string, cfg ScenarioConfig) {
		if err := RegisterScenario(name, description, ScenarioFromConfig(cfg)); err != nil {
			panic(err)
		}
	}
	base := func() ScenarioConfig {
		return ScenarioConfig{GeneratorConfig: workload.DefaultGeneratorConfig()}
	}

	mustRegister("paper-mix",
		"the paper's §8.1 synthetic mix: Poisson arrivals, lognormal durations, 2/4-GPU gangs",
		base())

	diurnal := base()
	diurnal.Arrival = ArrivalDiurnal
	mustRegister("diurnal",
		"paper mix under a day-night arrival cycle (sinusoidal rate, 4:1 peak-to-trough)",
		diurnal)

	heavy := base()
	heavy.JobSize = SizePareto
	mustRegister("heavy-tailed",
		"paper mix with Pareto(α=1.5) task durations: mice jobs plus elephant stragglers",
		heavy)

	bursty := base()
	bursty.Arrival = ArrivalBursty
	mustRegister("bursty",
		"paper mix with half the apps arriving in near-simultaneous load spikes",
		bursty)

	gangs := base()
	gangs.GangSizes = []GangMix{{Size: 1, Weight: 2}, {Size: 2, Weight: 3}, {Size: 4, Weight: 4}, {Size: 8, Weight: 1}}
	mustRegister("mixed-gangs",
		"paper mix over a 1/2/4/8-GPU gang-size population stressing the packing path",
		gangs)
}
