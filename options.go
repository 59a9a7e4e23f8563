package themis

import (
	"fmt"
)

// Option configures a Simulation. Options are applied in order by
// NewSimulation; later options override earlier ones, and any error they
// report aborts construction.
type Option func(*settings) error

// settings is the resolved configuration a Simulation is built from.
type settings struct {
	topology    *Topology
	clusterName string

	// Exactly one workload source must be set.
	apps           []*App
	spec           *WorkloadSpec
	trace          *Trace
	tracePath      string
	scenarioName   string
	scenarioParams ScenarioParams

	policyName   string
	policy       SchedulerPolicy
	policyCfg    PolicyConfig
	policyCfgSet bool // a policy-level knob option was used

	packerName string // "" = policies place their own grants

	leaseDuration   float64
	restartOverhead float64
	horizon         float64
	seed            int64
	failures        []Failure
}

// defaultSettings mirrors the paper's configuration (§8.1/§8.2): the 50-GPU
// testbed topology, the Themis policy with f = 0.8, 20-minute leases and the
// measured checkpoint/restart overhead.
func defaultSettings() *settings {
	return &settings{
		clusterName:     ClusterTestbed,
		policyName:      "themis",
		policyCfg:       defaultPolicyConfig(),
		leaseDuration:   20,
		restartOverhead: 0.75,
		seed:            1,
	}
}

// WithCluster selects a built-in topology by name: "testbed" (50 GPUs, the
// default), "sim" (256 GPUs) or "sim-fabric" (the same 256 GPUs across three
// fabric domains). Any other topology goes through WithTopology.
func WithCluster(name string) Option {
	return func(s *settings) error {
		if _, err := Cluster(name); err != nil {
			return err
		}
		s.clusterName = name
		s.topology = nil
		return nil
	}
}

// WithTopology supplies a custom cluster topology (see ClusterConfig.Build
// and TopologySpec.Build).
func WithTopology(topo *Topology) Option {
	return func(s *settings) error {
		if topo == nil {
			return fmt.Errorf("themis: WithTopology(nil)")
		}
		s.topology = topo
		return nil
	}
}

// WithApps runs the simulation over explicitly constructed apps (see NewApp
// and NewJob) or composed ones (see ComposeWorkload). The apps' runtime state
// is mutated by the run; rebuild or regenerate them to reuse across runs.
func WithApps(apps ...*App) Option {
	return func(s *settings) error {
		if len(apps) == 0 {
			return fmt.Errorf("themis: WithApps needs at least one app")
		}
		s.apps = apps
		s.spec, s.trace, s.tracePath, s.scenarioName = nil, nil, "", ""
		return nil
	}
}

// WithWorkload generates a synthetic workload from the spec at construction
// time (zero-valued fields default as in GenerateWorkload). The simulation
// seed (WithSeed) applies when the spec's own Seed is zero.
func WithWorkload(spec WorkloadSpec) Option {
	return func(s *settings) error {
		s.spec = &spec
		s.apps, s.trace, s.tracePath, s.scenarioName = nil, nil, "", ""
		return nil
	}
}

// WithScenario generates the workload from a built-in scenario (see
// Scenarios) at construction time. The optional params
// override the scenario's app count and load knobs; a zero params.Seed
// inherits the simulation seed (WithSeed), so seeded sweeps replay
// identically across scenarios.
func WithScenario(name string, params ...ScenarioParams) Option {
	return func(s *settings) error {
		if name == "" {
			return fmt.Errorf("themis: WithScenario needs a name")
		}
		if len(params) > 1 {
			return fmt.Errorf("themis: WithScenario takes at most one params, got %d", len(params))
		}
		if _, err := scenarios.lookup(name); err != nil {
			return err
		}
		s.scenarioName = name
		s.scenarioParams = ScenarioParams{}
		if len(params) == 1 {
			s.scenarioParams = params[0]
		}
		s.apps, s.spec, s.trace, s.tracePath = nil, nil, nil, ""
		return nil
	}
}

// WithTrace replays a previously captured trace.
func WithTrace(tr Trace) Option {
	return func(s *settings) error {
		s.trace = &tr
		s.apps, s.spec, s.tracePath, s.scenarioName = nil, nil, "", ""
		return nil
	}
}

// WithTraceFile replays a trace loaded from a file at construction time.
func WithTraceFile(path string) Option {
	return func(s *settings) error {
		if path == "" {
			return fmt.Errorf("themis: WithTraceFile needs a path")
		}
		s.tracePath = path
		s.apps, s.spec, s.trace, s.scenarioName = nil, nil, nil, ""
		return nil
	}
}

// WithPolicy selects a built-in scheduling policy by name (see Policies).
// The policy is constructed at NewSimulation time from the accumulated
// PolicyConfig (fairness knob, lease duration, bid error).
func WithPolicy(name string) Option {
	return func(s *settings) error {
		if name == "" {
			return fmt.Errorf("themis: WithPolicy needs a name")
		}
		s.policyName = name
		s.policy = nil
		return nil
	}
}

// WithPolicyInstance supplies a pre-built policy: the way in for a
// SchedulerPolicy of one's own. The instance must be fresh (policies
// accumulate per-run agent state) and carry its own knobs: combining it with
// WithFairnessKnob or WithBidError is an error, since those only configure
// the policies WithPolicy builds.
func WithPolicyInstance(p SchedulerPolicy) Option {
	return func(s *settings) error {
		if p == nil {
			return fmt.Errorf("themis: WithPolicyInstance(nil)")
		}
		s.policy = p
		return nil
	}
}

// WithFairnessKnob sets Themis's f ∈ [0,1] (§5; the paper settles on 0.8,
// and f = 0 offers GPUs to every app as in the Figure 4a sweep).
func WithFairnessKnob(f float64) Option {
	return func(s *settings) error {
		if f < 0 || f > 1 {
			return fmt.Errorf("themis: fairness knob %v outside [0,1]", f)
		}
		s.policyCfg.FairnessKnob = f
		s.policyCfgSet = true
		return nil
	}
}

// WithLeaseDuration sets the GPU lease length in minutes (paper default 20).
func WithLeaseDuration(minutes float64) Option {
	return func(s *settings) error {
		if minutes <= 0 {
			return fmt.Errorf("themis: lease duration %v must be positive", minutes)
		}
		s.leaseDuration = minutes
		return nil
	}
}

// WithRestartOverhead sets the wall-clock pause (minutes) an app suffers
// when its allocation changes, modelling checkpoint and container churn.
func WithRestartOverhead(minutes float64) Option {
	return func(s *settings) error {
		if minutes < 0 {
			return fmt.Errorf("themis: restart overhead %v must be non-negative", minutes)
		}
		s.restartOverhead = minutes
		return nil
	}
}

// WithHorizon caps simulated time in minutes; 0 (the default) runs until the
// workload completes.
func WithHorizon(minutes float64) Option {
	return func(s *settings) error {
		if minutes < 0 {
			return fmt.Errorf("themis: horizon %v must be non-negative", minutes)
		}
		s.horizon = minutes
		return nil
	}
}

// WithBidError perturbs Themis agents' ρ estimates by ±θ (Figure 11's error
// model); θ = 0 disables perturbation.
func WithBidError(theta float64) Option {
	return func(s *settings) error {
		if theta < 0 || theta >= 1 {
			return fmt.Errorf("themis: bid error theta %v outside [0,1)", theta)
		}
		s.policyCfg.BidErrorTheta = theta
		if theta != 0 {
			s.policyCfgSet = true
		}
		return nil
	}
}

// WithSeed seeds workload generation and the bid-error model.
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.seed = seed
		return nil
	}
}

// WithFailures injects machine failures into the run.
func WithFailures(failures ...Failure) Option {
	return func(s *settings) error {
		s.failures = failures
		return nil
	}
}
