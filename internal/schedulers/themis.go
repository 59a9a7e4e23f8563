// Package schedulers provides the cross-app scheduling policies evaluated in
// the paper, all implementing the simulator's Policy interface: Themis
// itself (finish-time-fair partial-allocation auctions) and the three
// baselines the paper compares against — Gandiva (introspective greedy
// placement), Tiresias (least attained service) and SLAQ (maximise aggregate
// loss reduction) — modelled exactly as §8 describes their emulation, plus a
// plain resource-fair (DRF-style) reference policy.
package schedulers

import (
	"fmt"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/estimator"
	"themis/internal/sim"
	"themis/internal/workload"
)

// Themis is the paper's scheduler: a semi-optimistic two-level design in
// which the Arbiter offers free GPUs to the worst 1−f fraction of apps by
// finish-time fairness and runs a truthful partial-allocation auction over
// their bids (§3–§5).
type Themis struct {
	cfg core.Config
	// BidErrorTheta perturbs agents' ρ estimates by ±θ (Figure 11); zero
	// disables perturbation.
	BidErrorTheta float64
	// ErrorSeed seeds the per-agent error models.
	ErrorSeed int64
	// PlacementBlind makes every Agent bid on spread (placement-oblivious)
	// GPU subsets; used only by the ablation benchmarks.
	PlacementBlind bool

	arbiter *core.Arbiter
	agents  map[workload.AppID]*core.Agent
	nextErr int64
	// states is Allocate's scratch, cleared after each round.
	states []core.AgentState
}

// NewThemis returns a Themis policy with the given arbiter configuration.
// The configuration is validated here, at construction time, so an invalid
// fairness knob or lease duration surfaces as an error before any simulation
// starts instead of aborting the first auction round.
func NewThemis(cfg core.Config) (*Themis, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("schedulers: invalid Themis configuration: %w", err)
	}
	return &Themis{cfg: cfg, agents: make(map[workload.AppID]*core.Agent)}, nil
}

// Name implements sim.Policy.
func (t *Themis) Name() string { return "themis" }

// Arbiter exposes the underlying arbiter (for overhead statistics); it is
// nil until the first allocation.
func (t *Themis) Arbiter() *core.Arbiter { return t.arbiter }

// Allocate implements sim.Policy by running one Themis auction round.
func (t *Themis) Allocate(now float64, free cluster.Alloc, view *sim.View) (map[workload.AppID]cluster.Alloc, error) {
	if t.arbiter == nil {
		arb, err := core.NewArbiter(view.Topo, t.cfg)
		if err != nil {
			return nil, fmt.Errorf("schedulers: building arbiter: %w", err)
		}
		t.arbiter = arb
	}
	states := t.states[:0]
	for _, st := range view.Apps {
		states = append(states, core.AgentState{Agent: t.agentFor(view, st), Current: st.Held})
	}
	decisions, err := t.arbiter.OfferResources(now, free, states)
	clear(states) // holds no agent or holding past the round
	t.states = states[:0]
	if err != nil {
		return nil, fmt.Errorf("schedulers: Themis auction failed: %w", err)
	}
	// Every decision's map is ours to keep; an app's leftover grant, sorted
	// after its auction win, merges into the win's map.
	out := make(map[workload.AppID]cluster.Alloc)
	for _, d := range decisions {
		if held, ok := out[d.App]; ok {
			held.Credit(d.Alloc)
		} else {
			out[d.App] = d.Alloc
		}
	}
	return out, nil
}

func (t *Themis) agentFor(view *sim.View, st *sim.AppState) *core.Agent {
	ag, ok := t.agents[st.App.ID]
	if ok {
		return ag
	}
	var errs *estimator.ErrorModel
	if t.BidErrorTheta > 0 {
		t.nextErr++
		errs = estimator.NewErrorModel(t.BidErrorTheta, t.ErrorSeed+t.nextErr)
	}
	ag = core.NewAgent(view.Topo, st.App, st.Tuner, errs)
	ag.PlacementBlind = t.PlacementBlind
	t.agents[st.App.ID] = ag
	return ag
}
