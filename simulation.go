package themis

import (
	"context"
	"fmt"

	"themis/internal/sim"
)

// Simulation is one configured simulation run: a workload replayed against a
// cluster topology under a scheduling policy. Build one with NewSimulation
// and execute it once with Run; policies and apps accumulate run state, so
// construct a fresh Simulation per run.
type Simulation struct {
	sim    *sim.Simulator
	policy SchedulerPolicy
	topo   *Topology
	ran    bool
}

// NewSimulation assembles a simulation from functional options. Unset knobs
// default to the paper's configuration — the 50-GPU testbed topology and the
// Themis policy with f = 0.8, 20-minute leases, 0.75-minute restarts — but a
// workload must be supplied via WithApps, WithWorkload, WithScenario,
// WithTrace or WithTraceFile. All configuration errors (unknown cluster or policy names,
// out-of-range knobs, invalid workloads) surface here, before the run.
func NewSimulation(opts ...Option) (*Simulation, error) {
	s := defaultSettings()
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("themis: nil Option")
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}

	topo := s.topology
	if topo == nil {
		var err error
		if topo, err = Cluster(s.clusterName); err != nil {
			return nil, err
		}
	}

	apps, err := resolveApps(s)
	if err != nil {
		return nil, err
	}

	policy := s.policy
	if policy == nil {
		cfg := s.policyCfg
		cfg.LeaseDuration = s.leaseDuration
		if cfg.ErrorSeed == 0 {
			cfg.ErrorSeed = s.seed
		}
		if policy, err = Policy(s.policyName, cfg); err != nil {
			return nil, err
		}
	} else if s.policyCfgSet {
		return nil, fmt.Errorf("themis: WithPolicyInstance conflicts with WithFairnessKnob/WithBidError; configure the instance directly")
	}

	var packer Packer
	if s.packerName != "" {
		if packer, err = buildPacker(s.packerName, topo); err != nil {
			return nil, err
		}
	}

	simulator, err := sim.New(sim.Config{
		Topology:        topo,
		Apps:            apps,
		Policy:          policy,
		Packer:          packer,
		LeaseDuration:   s.leaseDuration,
		RestartOverhead: s.restartOverhead,
		Horizon:         s.horizon,
		Failures:        s.failures,
	})
	if err != nil {
		return nil, fmt.Errorf("themis: %w", err)
	}
	return &Simulation{sim: simulator, policy: policy, topo: topo}, nil
}

// resolveApps materialises the configured workload source.
func resolveApps(s *settings) ([]*App, error) {
	switch {
	case s.apps != nil:
		return s.apps, nil
	case s.spec != nil:
		spec := *s.spec
		if spec.Seed == 0 {
			spec.Seed = s.seed
		}
		return GenerateWorkload(spec)
	case s.scenarioName != "":
		params := s.scenarioParams
		if params.Seed == 0 {
			params.Seed = s.seed
		}
		return GenerateScenario(s.scenarioName, params)
	case s.trace != nil:
		return s.trace.ToApps()
	case s.tracePath != "":
		tr, err := LoadTrace(s.tracePath)
		if err != nil {
			return nil, err
		}
		return tr.ToApps()
	default:
		return nil, fmt.Errorf("themis: no workload configured (use WithApps, WithWorkload, WithScenario, WithTrace or WithTraceFile)")
	}
}

// Topology returns the cluster the simulation schedules onto.
func (s *Simulation) Topology() *Topology { return s.topo }

// Run executes the simulation to completion — every app finished, the
// horizon reached, or no further events — and returns the collected Report.
// Cancelling the context aborts the run between decision points with the
// context's error. A Simulation is single-use: policies and apps accumulate
// run state, so a second Run returns an error.
func (s *Simulation) Run(ctx context.Context) (*Report, error) {
	if s.ran {
		return nil, fmt.Errorf("themis: Simulation already run; construct a new one with NewSimulation")
	}
	s.ran = true
	res, err := s.sim.Run(ctx)
	if err != nil {
		return nil, err
	}
	return newReport(res, s.policy), nil
}
